"""Attribution experiment: the ISSUE acceptance bar, kept in tier 1.

The full grid runs in CI (``python -m repro.experiments attribution``);
here one representative cell per system keeps the acceptance criteria —
component sums exact, attribution ≥ 90% against ground truth — from
regressing, and checks the FFA story the ledger must tell.
"""

import itertools

import pytest

import repro.baselines.nccl
import repro.cluster.gpu
import repro.cluster.ipc
import repro.core.communicator
import repro.core.messages
import repro.core.reconfig
import repro.core.sync
import repro.netsim.flows
import repro.transport.launcher
from repro.experiments.fig_attribution import run_attribution, top_interference

_GLOBAL_COUNTERS = [
    (repro.baselines.nccl, "_comm_counter"),
    (repro.cluster.gpu, "_buffer_counter"),
    (repro.cluster.gpu, "_stream_counter"),
    (repro.cluster.gpu, "_event_counter"),
    (repro.cluster.ipc, "_handle_counter"),
    (repro.core.communicator, "_comm_counter"),
    (repro.core.messages, "_msg_counter"),
    (repro.core.reconfig, "_session_counter"),
    (repro.core.sync, "_sync_counter"),
    (repro.netsim.flows, "_flow_counter"),
    (repro.transport.launcher, "_launch_counter"),
]


@pytest.fixture(scope="module", autouse=True)
def _pinned_id_counters():
    """Object ids feed the ECMP connection hash; pin them so the noffa
    cell draws the same spine collisions regardless of suite position
    (same trick as ``tests/telemetry/conftest.py``)."""
    originals = [(mod, name, getattr(mod, name)) for mod, name in _GLOBAL_COUNTERS]
    for mod, name in _GLOBAL_COUNTERS:
        setattr(mod, name, itertools.count(500_000))
    try:
        yield
    finally:
        for mod, name, counter in originals:
            setattr(mod, name, counter)


@pytest.fixture(scope="module")
def grid(_pinned_id_counters):
    """setup1 (paper Fig. 8 leftmost mix) under MCCS+FFA and ECMP."""
    results = run_attribution(setups=("setup1",), rounds=3)
    return {r.system: r for r in results}


def test_component_sums_are_exact(grid):
    for result in grid.values():
        assert result.collectives > 0
        assert result.sum_ok_fraction == 1.0, (
            f"{result.system}: critical-path components do not sum to the "
            f"measured duration within 1% for "
            f"{result.collectives - result.sum_ok} collectives"
        )


def test_attribution_meets_acceptance_bar(grid):
    for result in grid.values():
        assert result.accuracy >= 0.9, (
            f"{result.system}: named the true bottleneck link and "
            f"interferer for only {result.accuracy:.0%} of collectives"
        )


def test_ffa_empties_the_interference_ledger(grid):
    """Setup 1 contention is ECMP's fault: FFA separates the tenants."""
    ffa_seconds = sum(
        s for row in grid["mccs"].ledger.values() for s in row.values()
    )
    ecmp_seconds = sum(
        s for row in grid["mccs_noffa"].ledger.values() for s in row.values()
    )
    assert ffa_seconds == 0.0
    assert ecmp_seconds > 0.0


def test_top_interference_tie_ignores_ledger_order():
    """An exact A<->B tie ranks the same whichever pair was recorded
    first (setup4 ``mccs_noffa`` has one at 0.07247757312 s)."""
    tie = 0.07247757312
    forward = {"A": {"B": tie}, "B": {"A": tie}, "C": {"A": 0.01}}
    backward = {"C": {"A": 0.01}, "B": {"A": tie}, "A": {"B": tie}}
    assert top_interference(forward) == "A<-B 0.072s"
    assert top_interference(backward) == "A<-B 0.072s"
    assert top_interference({"A": {"B": 0.01}, "B": {"A": 0.02}}) == "B<-A 0.020s"
    assert top_interference({}) == "-"
