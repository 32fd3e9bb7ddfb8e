"""The engine against its oracle on real scenarios.

:func:`~repro.netsim.fairness.progressive_filling` is the reference: an
:class:`~tests.engine_oracle.OracleObserver` checks at every rate
recomputation that each in-network flow's rate equals the reference
allocation exactly, and at every completion that the flow delivered its
size.  These tests replay the Figure 7 reconfiguration timeline, a Figure 8
multi-tenant grid, a reduced Figure 10 timeline (which exercises
``interference_penalty``), a Figure 11 replay, a link-churn scenario and a
deployment failover under that observer.  The engine runs channels that
share (path, weight, job) as one macro group, so every check also holds
the aggregation to the per-flow reference.
"""

import itertools

import pytest

import repro.baselines.nccl as nccl_mod
import repro.core.communicator as comm_mod
import repro.netsim.flows as flows_mod
import repro.transport.launcher as launcher_mod
from repro.core.transport import TrafficGateManager, WindowSchedule
from repro.netsim.engine import FlowSimulator, SimObserver
from repro.netsim.topology import Topology
from tests.engine_oracle import OracleObserver, cluster_engine


def _reset_global_counters(monkeypatch):
    """Pin every id counter that feeds ECMP hashing / flow identity.

    Experiment runs are deterministic only relative to these counters;
    resetting them gives each scenario the same inputs whatever ran
    earlier in the process.
    """
    monkeypatch.setattr(comm_mod, "_comm_counter", itertools.count())
    monkeypatch.setattr(nccl_mod, "_comm_counter", itertools.count())
    monkeypatch.setattr(flows_mod, "_flow_counter", itertools.count())
    monkeypatch.setattr(launcher_mod, "_launch_counter", itertools.count())


def _run_with_oracle(monkeypatch, fn):
    """Run ``fn`` with the oracle on every cluster simulator it builds."""
    _reset_global_counters(monkeypatch)
    with cluster_engine(oracle=True) as observers:
        result = fn()
    assert observers, "the scenario built no cluster simulator"
    assert sum(o.checks for o in observers) > 0
    assert sum(o.completions for o in observers) > 0
    return result


def line_topo(cap=8.0):
    topo = Topology()
    topo.add_node("a")
    topo.add_node("b")
    topo.add_link("a", "b", cap)
    return topo


# ----------------------------------------------------------------------
# the engine matches progressive filling on real scenarios
# ----------------------------------------------------------------------
def test_fig07_timeline_identical_across_engines(monkeypatch):
    from repro.experiments.fig07_reconfig import run_fig07

    timeline = _run_with_oracle(
        monkeypatch,
        lambda: run_fig07(
            op_bytes=64 * 1024 * 1024,
            duration=6.0,
            bg_start=2.0,
            reconfig_at=3.0,
        ),
    )
    assert len(timeline.points) > 0


def test_fig08_grid_identical_across_engines(monkeypatch):
    from repro.experiments.fig08_multi_app import run_fig08

    results = _run_with_oracle(
        monkeypatch,
        lambda: run_fig08(
            setups=("setup1",),
            trials=1,
            op_bytes=32 * 1024 * 1024,
            duration=0.8,
            warmup=0.2,
        ),
    )
    assert len(results) > 0


def test_fig10_interference_timeline_matches_oracle(monkeypatch):
    """A reduced Figure 10 run: FFA, PFA and TS under a nonzero
    interference penalty, so the oracle's capacities are penalized."""
    from repro.experiments.fig10_dynamic import run_fig10

    timeline = _run_with_oracle(
        monkeypatch,
        lambda: run_fig10(
            t1=0.3, t2=0.6, t3=0.9, t4=1.2, end=1.5, penalty=0.3
        ),
    )
    assert timeline.throughput


def test_fig11_speedups_match_oracle(monkeypatch):
    from repro.experiments.fig11_simulation import run_fig11

    outcome = _run_with_oracle(
        monkeypatch,
        lambda: run_fig11(
            placement="random", num_jobs=4, iterations=6, channels=2, seed=0
        ),
    )
    assert all(outcome.speedups(s) for s in ("or", "or+ffa"))


# ----------------------------------------------------------------------
# cancellation: observers and gate managers see flows leave
# ----------------------------------------------------------------------
class _Recorder(SimObserver):
    def __init__(self):
        self.added = []
        self.completed = []
        self.cancelled = []

    def on_flow_added(self, flow, now):
        self.added.append(flow.flow_id)

    def on_flow_completed(self, flow, now):
        self.completed.append(flow.flow_id)

    def on_flow_cancelled(self, flow, now):
        self.cancelled.append((flow.flow_id, now))


def test_cancel_flow_notifies_observers():
    sim = FlowSimulator(line_topo())
    recorder = _Recorder()
    sim.add_observer(recorder)
    flow = sim.add_flow(100.0, ["a->b"])
    sim.run(until=1.0)
    assert sim.has_flow(flow)
    sim.cancel_flow(flow)
    assert not sim.has_flow(flow)
    assert recorder.cancelled == [(flow.flow_id, 1.0)]
    assert recorder.completed == []
    # Cancelling twice is a no-op, not a double notification.
    sim.cancel_flow(flow)
    assert len(recorder.cancelled) == 1
    # The network drains without the cancelled flow.
    assert sim.run() == pytest.approx(1.0)


def test_cancelled_flow_does_not_complete_or_stall():
    sim = FlowSimulator(line_topo(cap=8.0))
    done = []
    keeper = sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: done.append(t))
    doomed = sim.add_flow(8.0, ["a->b"], on_complete=lambda f, t: done.append(t))
    sim.schedule(0.5, lambda: sim.cancel_flow(doomed))
    sim.run()
    # keeper shared until t=0.5 (2 bytes left of 6) then ran alone.
    assert keeper.completed and not doomed.completed
    assert done == [pytest.approx(1.25)]


def test_gate_manager_forgets_cancelled_flows():
    sim = FlowSimulator(line_topo())
    gates = TrafficGateManager(sim)
    flow = sim.add_flow(1e6, ["a->b"], job_id="appA")
    gates.register(flow)
    sim.cancel_flow(flow)
    # Installing a closed-window schedule must not touch the dead flow.
    closed = WindowSchedule(period=1.0, open_intervals=((0.9, 1.0),))
    gates.set_schedule("appA", closed)
    assert gates.gate_transitions == 0
    assert not flow.gated


# ----------------------------------------------------------------------
# perf counters
# ----------------------------------------------------------------------
def test_perf_counters_incremental():
    sim = FlowSimulator(line_topo())
    for _ in range(5):
        sim.add_flow(8.0, ["a->b"])
    sim.run()
    counters = sim.perf_counters()
    assert counters["flows_completed"] == 5
    assert counters["rate_recomputations"] >= 1
    assert counters["solver_full_rebuilds"] == 1  # initial build only
    # The 5 same-path flows form one macro group: its add, one weight
    # resize and one activation for the 5 joins, and one removal.
    assert counters["solver_delta_updates"] == 4
    assert (
        counters["solver_rebuilds_avoided"]
        == counters["rate_recomputations"] - 1
    )
    assert counters["heap_pushes"] > 0
    assert counters["heap_invalidations"] > 0


def test_rate_recomputations_count_matches_dirty_transitions():
    # Semantics guard: one recomputation per dirty->clean transition.
    # Dirty at t=0 (add), 0.25 (add), 1.25 and 1.5 (completions).
    sim = FlowSimulator(line_topo())
    sim.add_flow(8.0, ["a->b"])
    sim.schedule(0.25, lambda: sim.add_flow(4.0, ["a->b"]))
    sim.run()
    assert sim.rate_recomputations == 4


# ----------------------------------------------------------------------
# link churn and failover: every allocation matches the oracle
# ----------------------------------------------------------------------
def diamond_topo(cap=8.0):
    topo = Topology()
    for node in ("a", "m1", "m2", "b"):
        topo.add_node(node)
    topo.add_link("a", "m1", cap)
    topo.add_link("m1", "b", cap)
    topo.add_link("a", "m2", cap)
    topo.add_link("m2", "b", cap)
    return topo


def _churn_scenario():
    """Flows through a diamond while one path flaps and one degrades."""
    sim = FlowSimulator(diamond_topo())
    oracle = OracleObserver(sim)
    sim.add_observer(oracle)
    log = []
    f1 = sim.add_flow(
        16.0, ["a->m1", "m1->b"],
        on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
        on_fail=lambda f, t, err: log.append(("fail", f.flow_id, t, str(err))),
    )
    f2 = sim.add_flow(
        16.0, ["a->m2", "m2->b"],
        on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
    )
    late = []
    sim.schedule(0.5, lambda: sim.fail_link("m1->b"))
    sim.schedule(0.7, lambda: sim.set_link_capacity("a->m2", 4.0))
    sim.schedule(0.9, lambda: sim.restore_link("m1->b"))

    def relaunch():
        late.append(
            sim.add_flow(
                8.0, ["a->m1", "m1->b"],
                on_complete=lambda f, t: log.append(("done", f.flow_id, t)),
            )
        )

    sim.schedule(0.9, relaunch)
    sim.schedule(1.1, lambda: sim.set_link_capacity("a->m2", 8.0))
    end = sim.run()
    counters = sim.perf_counters()
    return {
        "log": tuple((entry[0], entry[2]) for entry in log),
        "end": end,
        "f1": (f1.failed, f1.remaining, f1.end_time),
        "f2": (f2.completed, f2.end_time),
        "late": [(f.completed, f.end_time) for f in late],
        "flows_failed": counters["flows_failed"],
        "flows_completed": counters["flows_completed"],
        "link_up": sim.link_is_up("m1->b"),
        "oracle": (oracle.checks, oracle.completions),
        "rate_recomputations": counters["rate_recomputations"],
    }


def test_link_churn_identical_across_engines():
    outcome = _churn_scenario()
    assert outcome["oracle"] == (outcome["rate_recomputations"], 2)
    # f1 dies with m1->b at t=0.5 after delivering 4 of its 16 bytes; f2
    # runs at 8 B/s, at 4 B/s from 0.7 to 1.1, then at 8 B/s again; the
    # relaunched flow has the restored path to itself from 0.9.
    assert outcome["f1"] == (True, 12.0, None)
    assert outcome["f2"] == (True, pytest.approx(2.2))
    assert outcome["late"] == [(True, pytest.approx(1.9))]
    assert [kind for kind, _ in outcome["log"]] == ["fail", "done", "done"]
    assert outcome["flows_failed"] == 1
    assert outcome["link_up"]


def test_fault_recovery_timeline_identical_across_engines(monkeypatch):
    """A full deployment-level failover replays under the oracle."""
    import numpy as np

    from repro.cluster.specs import testbed_cluster
    from repro.core.controller import CentralManager
    from repro.core.deployment import MccsDeployment
    from repro.core.recovery import RecoveryPolicy
    from repro.faults import FaultInjector

    def scenario():
        cluster = testbed_cluster()
        deployment = MccsDeployment(cluster)
        deployment.enable_recovery(
            RecoveryPolicy(collective_deadline=0.25), heartbeat_until=1.0
        )
        manager = CentralManager(deployment)
        gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
        state = manager.admit("A", gpus)
        client = deployment.connect("A")
        comm = client.adopt_communicator(state.comm_id)
        injector = FaultInjector(cluster, deployment=deployment)

        def strike():
            links = sorted(
                {
                    link
                    for flow in cluster.sim.active_flows()
                    for link in flow.links
                    if "spine" in link
                }
            )
            injector.fail_link(links[0])
            cluster.sim.call_in(0.05, lambda: injector.restore_link(links[0]))

        cluster.sim.call_in(0.004, strike)
        sends = [client.alloc(g, 256) for g in gpus]
        recvs = [client.alloc(g, 256) for g in gpus]
        for buf in sends:
            buf.view(np.float32)[:] = 2.0
        big = client.all_reduce(comm, 64 * 1024 * 1024)
        small = client.all_reduce(comm, 256, send=sends, recv=recvs)
        deployment.run()
        assert big.completed and small.completed
        assert all(np.allclose(r.view(np.float32), 8.0) for r in recvs)
        return big.instance.attempts

    # the big collective really was retried
    assert _run_with_oracle(monkeypatch, scenario) >= 2
