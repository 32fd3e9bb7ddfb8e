"""Exactness and unit coverage of macro-flow aggregation at scale.

The engine aggregates channels sharing (path, weight, job) into one
solver slot (:mod:`repro.netsim.macroflow`), an *exact* optimization:
every member rate must equal the per-flow progressive-filling
allocation, not merely come close.  The property test here drives the
engine through randomized add / batch-add / cancel / gate / link-fail /
bandwidth-drift churn on a two-pod Clos fabric with the oracle observer
checking ``==`` at every recomputation and every completion.

The unit tests pin the mechanics the property test exercises blindly:
macro group lifecycle, a completion order that does not depend on
object addresses, the batched ``add_flows`` surface, and the multi-pod
fabric / profile-harness helpers the scale benchmark builds on.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.netsim.engine import FlowSimulator, SimObserver
from repro.netsim.errors import LinkDownError
from repro.netsim.fabric import MultiPodSpec, multi_pod_clos
from repro.netsim.macroflow import _MacroGroup
from repro.netsim.profile import (
    connection_path,
    prepare_scale_workload,
    run_scale_workload,
    scale_spec,
    synthetic_connections,
)
from tests.engine_oracle import OracleObserver

#: Tiny two-pod fabric for churn tests: 2 pods x 2 leaves x 2 hosts x 2
#: NICs (16 GPUs) — big enough for contention across the core tier,
#: small enough to rebuild per drive (link failures mutate the topology).
TINY_SPEC = MultiPodSpec(
    pods=2,
    spines_per_pod=2,
    leaves_per_pod=2,
    hosts_per_leaf=2,
    nics_per_host=2,
    core_switches=2,
)


def _connection_pool(count=12, inter_pod_fraction=0.4, seed=7):
    """Deterministic (path, job) templates spanning both pods."""
    rng = random.Random(seed)
    return list(
        synthetic_connections(
            TINY_SPEC, rng, count, inter_pod_fraction=inter_pod_fraction
        )
    )


_POOL = _connection_pool()

_churn_op = st.one_of(
    st.tuples(
        st.just("add"),
        st.integers(0, len(_POOL) - 1),  # connection template
        st.sampled_from([0.5, 1.0, 2.0]),  # dyadic weight
        st.integers(1, 4),  # channel fan-out (batch size)
        st.integers(1, 6),  # size multiplier
    ),
    st.tuples(st.just("cancel"), st.integers(0, 199)),
    st.tuples(st.just("gate"), st.integers(0, 199)),
    st.tuples(st.just("fail"), st.integers(0, len(_POOL) - 1)),
    # Live bandwidth drift: resize a link already carrying traffic.  The
    # factors are dyadic so rate arithmetic stays exactly representable
    # and the oracle comparison can keep using ``==`` on floats.
    st.tuples(
        st.just("bw"),
        st.integers(0, len(_POOL) - 1),
        st.sampled_from([0.25, 0.5, 2.0]),
    ),
    st.tuples(st.just("advance"), st.floats(0.01, 0.4)),
)


def _drive(ops):
    """Replay one churn script under the oracle; returns the oracle."""
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology)
    oracle = OracleObserver(sim)
    sim.add_observer(oracle)
    handles = []
    for op in ops:
        kind = op[0]
        if kind == "add":
            _, conn, weight, channels, size_k = op
            path, job = _POOL[conn]
            try:
                handles.extend(
                    sim.add_flows(
                        2e7 * size_k, path, channels, job_id=job, weight=weight
                    )
                )
            except LinkDownError:  # path crosses a failed link
                pass
        elif kind == "cancel":
            live = [f for f in handles if f.end_time is None and not f.failed]
            if live:
                sim.cancel_flow(live[op[1] % len(live)])
        elif kind == "gate":
            live = [f for f in handles if f.end_time is None and not f.failed]
            if live:
                victim = live[op[1] % len(live)]
                sim.gate_flow(victim, not victim.gated)
        elif kind == "fail":
            sim.fail_link(_POOL[op[1]][0][0])
        elif kind == "bw":
            link = _POOL[op[1]][0][0]
            sim.set_link_bandwidth(link, sim.topology.link(link).capacity * op[2])
        else:  # advance
            sim.run(until=sim.now + op[1])
    sim.run()  # drain whatever can still finish (gated flows stay put)
    assert oracle.completions == sim.flows_completed
    return oracle


@given(ops=st.lists(_churn_op, min_size=1, max_size=25))
@settings(max_examples=12, deadline=None, derandomize=True)
def test_fast_modes_bit_identical_under_churn(ops):
    """Macro aggregation, the engine's fast path, is bit-identical to the
    per-flow oracle at every recomputation and completion."""
    oracle = _drive(ops)
    assert oracle.checks == oracle.sim.rate_recomputations


def _sim():
    fabric = multi_pod_clos(TINY_SPEC)
    return FlowSimulator(fabric.topology)


def _pod_local_path(pod, host=0, nic=0, peer_nic=1):
    base = pod * TINY_SPEC.hosts_per_pod
    return connection_path(
        TINY_SPEC, base + host, nic, base + host + 1, peer_nic, spine=0, core=0
    )


# ----------------------------------------------------------------------
# macro-flow mechanics
# ----------------------------------------------------------------------
def test_macro_channel_fanout_collapses_to_one_group():
    sim = _sim()
    path = _pod_local_path(0)
    flows = sim.add_flows(1e9, path, 8, job_id="job0")
    sim.run(until=0.001)
    counters = sim.perf_counters()
    assert counters["macro_groups"] == 1
    assert counters["macro_members"] == 8
    assert counters["macro_peak_group_size"] == 8
    # All channels share one (path, weight, tenant): identical rates.
    rates = {f.rate for f in flows}
    assert len(rates) == 1
    sim.run()
    assert sim.flows_completed == 8
    assert sim.perf_counters()["macro_groups"] == 0


def test_macro_distinct_weights_get_distinct_groups():
    sim = _sim()
    path = _pod_local_path(0)
    sim.add_flow(1e9, path, weight=1.0)
    sim.add_flow(1e9, path, weight=2.0)
    sim.run(until=0.001)
    assert sim.perf_counters()["macro_groups"] == 2


class _CompletionLog(SimObserver):
    def __init__(self):
        self.flows = []

    def on_flow_completed(self, flow, now):
        self.flows.append(flow)


def _equal_eta_completion_order():
    """Creation indices of 32 flows in completion order: 12 jobs x 2
    channels finish at one instant, 4 more jobs joining at t=0.01 at
    another, so each instant's order is pure heap tie-breaking."""
    sim = _sim()
    path = _pod_local_path(0)
    flows = []
    for job in range(12):
        flows += sim.add_flows(1e9, path, 2, job_id=f"job{job}")

    def late_jobs():
        for job in range(12, 16):
            flows.extend(sim.add_flows(1e9, path, 2, job_id=f"job{job}"))

    sim.schedule(0.01, late_jobs)
    log = _CompletionLog()
    sim.add_observer(log)
    sim.run()
    return [flows.index(flow) for flow in log.flows]


def test_macro_completion_order_does_not_depend_on_group_hash(monkeypatch):
    """Same-ETA completions (and so callback order) follow creation
    order, not the iteration order of a hash-keyed container of groups
    — which for objects hashing by address varies between processes."""
    expected = _equal_eta_completion_order()
    assert expected == list(range(32))
    for scramble in (
        lambda group: -id(group),
        lambda group: (id(group) * 0x9E3779B97F4A7C15) % (1 << 61),
    ):
        monkeypatch.setattr(_MacroGroup, "__hash__", scramble)
        assert _equal_eta_completion_order() == expected


def test_macro_ties_break_like_the_per_flow_solver():
    """Member slots are numbered as the per-flow solver numbers its
    slots: once 40 finished flows' 80 incidence entries are compacted,
    new flows reuse the freed slots highest first, and equal-ETA
    completions follow slot order — so experiments replay the per-flow
    engine's completion (and callback) order."""
    sim = _sim()
    path = _pod_local_path(0)
    for job in range(40):
        sim.add_flow(1e9, path, job_id=f"job{job}")
    sim.run()
    late = [sim.add_flow(1e9, path, job_id=f"late{job}") for job in range(8)]
    log = _CompletionLog()
    sim.add_observer(log)
    sim.run()
    assert [late.index(flow) for flow in log.flows] == list(range(7, -1, -1))


def test_add_flows_equivalent_to_repeated_add_flow():
    path = _pod_local_path(0)
    batched, loose = _sim(), _sim()
    flows_b = batched.add_flows(3e8, path, 4, job_id="j")
    flows_l = [loose.add_flow(3e8, path, job_id="j") for _ in range(4)]
    assert len(flows_b) == 4
    batched.run()
    loose.run()
    assert [f.end_time for f in flows_b] == [f.end_time for f in flows_l]


# ----------------------------------------------------------------------
# multi-pod fabric + profile harness helpers
# ----------------------------------------------------------------------
def test_scale_spec_hits_roadmap_gpu_band():
    assert scale_spec(1).gpus == 512
    assert scale_spec(4).gpus == 2048
    assert scale_spec(16).gpus == 8192


def test_connection_paths_are_valid_on_the_fabric():
    fabric = multi_pod_clos(TINY_SPEC)
    rng = random.Random(3)
    for path, _job in synthetic_connections(
        TINY_SPEC, rng, 40, inter_pod_fraction=0.5
    ):
        fabric.topology.validate_path(path)  # raises on any bad link id


def test_prepare_scale_workload_runs_to_completion():
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology)
    injected = prepare_scale_workload(
        sim, TINY_SPEC, 64, channels=4, wave_flows=32
    )
    assert injected >= 64
    sim.run()
    assert sim.flows_completed == injected
    counters = sim.perf_counters()
    assert "solver_coalesced_solves" in counters
    assert counters["macro_members"] == 0  # every group drained


def test_run_scale_workload_counts_completions():
    fabric = multi_pod_clos(TINY_SPEC)
    sim = FlowSimulator(fabric.topology)
    assert run_scale_workload(sim, TINY_SPEC, 32, channels=4) >= 32


def test_profile_main_smoke(capsys):
    from repro.netsim.profile import main

    main(["--flows", "32", "--pods", "1", "--channels", "4", "--top", "3"])
    out = capsys.readouterr().out
    assert "events/s" in out
    assert "perf counters:" in out
