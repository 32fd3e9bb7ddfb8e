"""Lowering: synthesized programs through the real flow data plane.

Covers the compilation contract end to end: a validated program runs as
a first-class strategy on a live deployment — flows through
``repro.netsim`` with every allocation held to the progressive-filling
oracle, buffers moved by the interpreter, consistency gates intact.
"""

import numpy as np
import pytest

from repro.cluster.specs import multi_region_cluster, testbed_cluster
from repro.collectives.types import Collective, ReduceOp
from repro.core.algorithms import AlgorithmContext, get_algorithm
from repro.core.deployment import MccsDeployment
from repro.core.strategy import CollectiveStrategy
from repro.collectives.ring import RingSchedule
from repro.errors import MccsError
from repro.netsim.fabric import RegionSpec
from repro.synth import (
    SynthAlgorithm,
    hierarchical_allreduce_program,
    register_program,
    registered_synth_algorithms,
    temporarily_registered,
    unregister_program,
)
from tests.engine_oracle import cluster_engine


@pytest.fixture
def hier_program():
    return hierarchical_allreduce_program(
        [[0, 1, 2, 3], [4, 5, 6, 7]], name="synth:test-lowering/w8"
    )


def test_register_validates_and_unregister_cleans_up(hier_program):
    algo = register_program(hier_program, fingerprint="fp-test")
    try:
        assert algo.name in registered_synth_algorithms()
        assert get_algorithm(algo.name) is algo
        assert algo.fingerprint == "fp-test"
    finally:
        unregister_program(algo.name)
    assert algo.name not in registered_synth_algorithms()
    with pytest.raises(MccsError):
        get_algorithm(algo.name)


def test_register_rejects_invalid_program():
    from repro.errors import PostconditionError
    from repro.synth import Instr, OpKind, make_program

    bad = make_program(
        "synth:test-bad", Collective.BROADCAST,
        [[Instr(OpKind.SEND, 0, peer=1)], [Instr(OpKind.RECV, 0, peer=0)], []],
        num_chunks=1,
    )
    with pytest.raises(PostconditionError):
        register_program(bad)
    assert "synth:test-bad" not in registered_synth_algorithms()


def test_temporarily_registered_restores_registry(hier_program):
    before = registered_synth_algorithms()
    with temporarily_registered(hier_program) as algos:
        assert algos[0].name in registered_synth_algorithms()
    assert registered_synth_algorithms() == before


def test_rank_transfers_aggregate_per_peer_and_channel(hier_program):
    algo = SynthAlgorithm(hier_program)
    ctx = AlgorithmContext(
        kind=Collective.ALL_REDUCE,
        out_bytes=8 << 20,
        world=8,
        rank=0,
        root=0,
        ring_order=tuple(range(8)),
        channels=1,
    )
    transfers = algo.rank_transfers(ctx)
    # one aggregate flow per (peer, channel), like the built-ins
    keys = [(t.dst_rank, t.channel) for t in transfers]
    assert len(keys) == len(set(keys))
    total = sum(t.nbytes for t in transfers)
    expected = sum(
        nbytes
        for (src, _dst), nbytes in hier_program.pair_traffic(8 << 20).items()
        if src == 0
    )
    assert total == pytest.approx(expected)


def test_unsupported_points_fall_back_to_ring(hier_program):
    algo = SynthAlgorithm(hier_program)
    assert algo.supports(Collective.ALL_REDUCE, 8)
    assert not algo.supports(Collective.ALL_REDUCE, 4)
    assert not algo.supports(Collective.ALL_GATHER, 8)
    ring = get_algorithm("ring")
    assert algo.steps(Collective.ALL_GATHER, 8) == ring.steps(
        Collective.ALL_GATHER, 8
    )
    assert algo.steps(Collective.ALL_REDUCE, 8) == hier_program.num_steps


def test_synthesized_program_moves_real_bytes_under_the_engine_oracle(
    hier_program,
):
    """Byte-exact buffer round trip through the flow data plane."""
    with cluster_engine(oracle=True) as observers:
        cluster = multi_region_cluster(RegionSpec())
    gpus = [h.gpus[0] for h in cluster.hosts]
    with temporarily_registered(hier_program) as (algo,):
        deployment = MccsDeployment(cluster)
        strategy = CollectiveStrategy(
            ring=RingSchedule(tuple(range(8))),
            channels=1,
            algorithm=algo.name,
        )
        comm = deployment.create_communicator("A", gpus, strategy=strategy)
        client = deployment.connect("A")
        shim_comm = client.adopt_communicator(comm.comm_id)
        sends = [client.alloc(g, 256) for g in gpus]
        recvs = [client.alloc(g, 256) for g in gpus]
        for rank, buf in enumerate(sends):
            buf.view(np.float32)[:] = float(rank + 1)
        op = client.all_reduce(
            shim_comm, 256, send=sends, recv=recvs, op=ReduceOp.SUM
        )
        deployment.run()
        assert op.completed
        expected = sum(range(1, 9))  # 36
        for buf in recvs:
            np.testing.assert_array_equal(
                buf.view(np.float32), np.full(64, float(expected))
            )
        assert comm.inconsistent_collectives == 0
    assert observers[0].checks > 0 and observers[0].completions > 0


def test_synthesized_completion_time_beats_builtins_on_two_regions(
    hier_program,
):
    """The acceptance-criteria win: strictly faster simulated completion."""

    def measure(algorithm):
        cluster = multi_region_cluster(RegionSpec())
        gpus = [h.gpus[0] for h in cluster.hosts]
        deployment = MccsDeployment(cluster)
        strategy = CollectiveStrategy(
            ring=RingSchedule(tuple(range(8))), channels=1, algorithm=algorithm
        )
        comm = deployment.create_communicator(
            "A", gpus, strategy=strategy, datapath_tag="synth-win"
        )
        client = deployment.connect("A")
        shim_comm = client.adopt_communicator(comm.comm_id)
        done = []
        client.all_reduce(
            shim_comm,
            16 << 20,
            on_complete=lambda inst, now: done.append(inst.duration()),
        )
        deployment.run()
        return done[0]

    with temporarily_registered(hier_program) as (algo,):
        synth_t = measure(algo.name)
        ring_t = measure("ring")
        tree_t = measure("tree")
        hd_t = measure("halving_doubling")
    assert synth_t < min(ring_t, tree_t, hd_t)


def test_fallback_path_still_correct_on_testbed():
    """A program registered for one world serves other worlds via ring."""
    program = hierarchical_allreduce_program(
        [[0, 1], [2, 3]], name="synth:test-fallback/w4"
    )
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(2)]  # world 2 != 4
    with temporarily_registered(program) as (algo,):
        deployment = MccsDeployment(cluster)
        strategy = CollectiveStrategy(
            ring=RingSchedule((0, 1)), channels=1, algorithm=algo.name
        )
        comm = deployment.create_communicator("A", gpus, strategy=strategy)
        client = deployment.connect("A")
        shim_comm = client.adopt_communicator(comm.comm_id)
        sends = [client.alloc(g, 128) for g in gpus]
        recvs = [client.alloc(g, 128) for g in gpus]
        for rank, buf in enumerate(sends):
            buf.view(np.float32)[:] = float(rank + 1)
        op = client.all_reduce(shim_comm, 128, send=sends, recv=recvs)
        deployment.run()
        assert op.completed
        for buf in recvs:
            np.testing.assert_array_equal(
                buf.view(np.float32), np.full(32, 3.0)
            )
