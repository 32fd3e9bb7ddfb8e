"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (
    CentralManager,
    MccsDeployment,
    NcclCommunicator,
    testbed_cluster,
)
from repro.collectives.types import ReduceOp
from repro.netsim.units import MB


def test_mccs_and_nccl_agree_on_uncongested_timing():
    """With identical rings and no contention, MCCS differs from NCCL only
    by the fixed datapath latency — negligible at 512 MB."""
    # NCCL
    cl1 = testbed_cluster()
    gpus1 = [cl1.hosts[h].gpus[0] for h in range(4)]
    nccl = NcclCommunicator(cl1, gpus1)
    op1 = nccl.all_reduce(512 * MB)
    cl1.sim.run()
    # MCCS
    cl2 = testbed_cluster()
    dep = MccsDeployment(cl2)
    mgr = CentralManager(dep)
    gpus2 = [cl2.hosts[h].gpus[0] for h in range(4)]
    state = mgr.admit("A", gpus2)
    client = dep.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    op2 = client.all_reduce(comm, 512 * MB)
    dep.run()
    assert op2.duration() == pytest.approx(op1.duration(), rel=0.01)


def test_data_correct_across_reconfiguration():
    """Collectives keep producing correct results while the ring changes
    underneath the application."""
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    mgr = CentralManager(dep)
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    state = mgr.admit("A", gpus)
    client = dep.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    sends = [client.alloc(g, 256) for g in gpus]
    recvs = [client.alloc(g, 256) for g in gpus]
    results = []

    def do_round(value):
        for buf in sends:
            buf.view(np.float32)[:] = value
        op = client.all_reduce(comm, 256, send=sends, recv=recvs)
        results.append((op, value * 4))

    do_round(1.0)
    dep.reconfigure(comm.comm_id, ring=[3, 2, 1, 0], delays=[0.002, 0.0, 0.001, 0.0])
    do_round(2.0)
    dep.run()
    do_round(3.0)
    dep.run()
    for op, expected in results:
        assert op.completed
    # final round ran under the new ring and still sums correctly
    assert all(np.allclose(r.view(np.float32), 12.0) for r in recvs)
    assert state.inconsistent_collectives == 0
    assert state.strategy.ring.order == (3, 2, 1, 0)


def test_multi_tenant_isolation_and_fairness_end_to_end():
    """Two tenants, FFA routes, equal bandwidth, no buffer crossover."""
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    mgr = CentralManager(dep)
    a_state = mgr.admit("A", [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]])
    b_state = mgr.admit("B", [cl.hosts[1].gpus[0], cl.hosts[3].gpus[0]])
    mgr.apply_flow_policy("ffa")
    dep.run()
    clients = {app: dep.connect(app) for app in ("A", "B")}
    comms = {
        "A": clients["A"].adopt_communicator(a_state.comm_id),
        "B": clients["B"].adopt_communicator(b_state.comm_id),
    }
    ops = {
        app: clients[app].all_reduce(comms[app], 128 * MB)
        for app in ("A", "B")
    }
    dep.run()
    # Disjoint spine routes: identical completion times at full NIC rate.
    assert ops["A"].duration() == pytest.approx(ops["B"].duration(), rel=0.01)
    # Tenant B cannot touch tenant A's buffers.
    buf = clients["A"].alloc(cl.hosts[0].gpus[0], 64)
    from repro.netsim.errors import InvalidBufferError

    with pytest.raises(InvalidBufferError):
        dep.service_of(0).memory.view("B", buf.ref())


def test_concurrent_communicators_one_tenant():
    """One app with two communicators over different GPU subsets."""
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    client = dep.connect("A")
    c1 = client.create_communicator([cl.hosts[0].gpus[0], cl.hosts[1].gpus[0]])
    c2 = client.create_communicator([cl.hosts[2].gpus[0], cl.hosts[3].gpus[0]])
    op1 = client.all_reduce(c1, 32 * MB)
    op2 = client.all_reduce(c2, 32 * MB)
    dep.run()
    # Intra-rack rings, no shared links: identical durations.
    assert op1.duration() == pytest.approx(op2.duration(), rel=0.01)


def test_reduce_op_matrix_through_service():
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    client = dep.connect("A")
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    sends = [client.alloc(g, 64) for g in gpus]
    recvs = [client.alloc(g, 64) for g in gpus]
    expectations = {
        ReduceOp.SUM: 1.0 + 2.0 + 3.0 + 4.0,
        ReduceOp.PROD: 24.0,
        ReduceOp.MAX: 4.0,
        ReduceOp.MIN: 1.0,
    }
    for op_kind, expected in expectations.items():
        for i, buf in enumerate(sends):
            buf.view(np.float32)[:] = float(i + 1)
        client.all_reduce(comm, 64, send=sends, recv=recvs, op=op_kind)
        dep.run()
        assert all(np.allclose(r.view(np.float32), expected) for r in recvs), op_kind


def test_many_small_collectives_drain():
    """Stress: hundreds of serialized ops complete and stay ordered."""
    cl = testbed_cluster()
    dep = MccsDeployment(cl)
    client = dep.connect("A")
    gpus = [cl.hosts[h].gpus[0] for h in range(4)]
    comm = client.create_communicator(gpus)
    ops = [client.all_reduce(comm, 256 * 1024) for _ in range(200)]
    dep.run()
    assert all(op.completed for op in ops)
    ends = [op.end_time for op in ops]
    assert ends == sorted(ends)
    trace = dep.trace(comm.comm_id)
    assert len(trace.instances) == 200


def test_public_api_surface():
    import repro

    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_partial_adoption_coexists_with_unmanaged_tenants():
    """§5: "Even if only a subset of tenants use MCCS, MCCS can still
    collaboratively schedule the collectives of that subset, while
    treating other flows as background flows."  An unmanaged NCCL tenant
    and a managed MCCS tenant share the fabric; both make progress, and
    the managed tenant still benefits from its own flow assignment."""
    from repro.core.controller import CentralManager

    def run(managed_uses_ffa: bool, seed: int) -> float:
        cl = testbed_cluster()
        # unmanaged tenant: plain NCCL on one GPU row
        nccl_gpus = [cl.hosts[h].gpus[1] for h in range(4)]
        nccl = NcclCommunicator(cl, nccl_gpus, ecmp_seed=seed, job_id="legacy")

        def nccl_loop(op=None, now=None):
            if cl.sim.now < 0.5:
                nccl.all_reduce(64 * MB, on_complete=nccl_loop)

        nccl_loop()
        # managed tenant on the other row, 2 GPUs per rack
        dep = MccsDeployment(cl, ecmp_seed=seed)
        mgr = CentralManager(dep)
        # routing-sensitive assertion: pin the ECMP namespace so the
        # draws don't depend on the process-global comm counter (i.e. on
        # how many communicators earlier tests created)
        state = mgr.admit(
            "managed",
            [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]],
            datapath_tag="partial-adoption",
        )
        if managed_uses_ffa:
            mgr.apply_flow_policy("ffa")
        client = dep.connect("managed")
        comm = client.adopt_communicator(state.comm_id)
        durations = []

        def managed_loop(inst=None, now=None):
            if inst is not None:
                durations.append(inst.duration())
            if cl.sim.now < 0.5:
                client.all_reduce(comm, 64 * MB, on_complete=managed_loop)

        managed_loop()
        cl.sim.run(until=1.5)
        assert durations, "managed tenant made no progress"
        return sum(durations) / len(durations)

    # Averaged over seeds, route pinning is never worse than ECMP for the
    # managed tenant even with legacy traffic in the fabric.
    seeds = range(6)
    with_ffa = sum(run(True, s) for s in seeds) / 6
    without = sum(run(False, s) for s in seeds) / 6
    assert with_ffa <= without * 1.01
