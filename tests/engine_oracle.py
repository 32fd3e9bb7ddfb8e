"""Test-side reference checks for the flow simulator.

* :class:`OracleObserver` holds the engine to
  :func:`~repro.netsim.fairness.progressive_filling`: at every rate
  recomputation each in-network flow's rate must equal the reference
  allocation over the active flows exactly (``==``; ``rel`` relaxes that
  for arbitrary float capacities and weights, where the reference's
  summation order can differ in the last bit), with the
  interference penalty applied to the capacities on the test side.  It
  also integrates each flow's rate over time and checks, when the engine
  completes the flow, that the delivered bytes equal its size.
* :func:`cluster_engine` builds every :class:`~repro.cluster.specs.
  Cluster` simulator inside its block with the oracle attached, so whole
  experiments replay through it without a simulator option on any
  experiment entry point.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

import repro.cluster.specs as specs_mod
from repro.netsim.engine import _BYTE_EPS, _TIME_EPS, FlowSimulator, SimObserver
from repro.netsim.fairness import progressive_filling


def effective_capacities(sim: FlowSimulator, flows) -> Dict[str, float]:
    """Capacities of the links ``flows`` cross, with the interference
    model applied: a link carrying active flows of two or more distinct
    jobs loses ``sim.interference_penalty`` of its capacity."""
    jobs_on_link: Dict[str, set] = {}
    for flow in flows:
        for link in flow.links:
            jobs = jobs_on_link.setdefault(link, set())
            if flow.active:
                jobs.add(flow.job_id)
    scale = 1.0 - sim.interference_penalty
    caps = {}
    for link, jobs in jobs_on_link.items():
        cap = sim.link_capacity(link)
        caps[link] = cap * scale if len(jobs) >= 2 else cap
    return caps


class OracleObserver(SimObserver):
    """Asserts the engine's allocation and completions against the oracle."""

    def __init__(self, sim: FlowSimulator, rel: float = 0.0) -> None:
        self.sim = sim
        self.rel = rel
        self.checks = 0
        self.completions = 0
        # flow id -> (bytes delivered as of t, rate since t, t)
        self._progress: Dict[str, Tuple[float, float, float]] = {}

    def on_rates_recomputed(self, now: float) -> None:
        flows = self.sim.active_flows()
        expected = progressive_filling(
            flows, effective_capacities(self.sim, flows)
        )
        for flow in flows:
            want = expected[flow.flow_id]
            assert abs(flow.rate - want) <= self.rel * want, (
                f"{flow.flow_id} at t={now}: engine {flow.rate!r} "
                f"!= progressive_filling {want!r}"
            )
            done, rate, since = self._progress.get(flow.flow_id, (0.0, 0.0, now))
            self._progress[flow.flow_id] = (
                done + rate * (now - since), flow.rate, now
            )
        self.checks += 1

    def on_flow_completed(self, flow, now: float) -> None:
        done, rate, since = self._progress.pop(flow.flow_id)
        delivered = done + rate * (now - since)
        # The engine completes flows due within _TIME_EPS of the event.
        slack = flow.size * 1e-9 + rate * _TIME_EPS + _BYTE_EPS
        assert abs(delivered - flow.size) <= slack, (
            f"{flow.flow_id} completed at t={now} having delivered "
            f"{delivered!r} of {flow.size!r} bytes"
        )
        self.completions += 1

    def on_flow_cancelled(self, flow, now: float) -> None:
        self._progress.pop(flow.flow_id, None)

    on_flow_failed = on_flow_cancelled


@contextmanager
def cluster_engine(*, oracle: bool = False) -> Iterator[List[OracleObserver]]:
    """Build every cluster simulator in the block with these settings.

    Yields the list of oracle observers attached so far (empty unless
    ``oracle``), one per simulator the block built.
    """
    original = specs_mod.FlowSimulator
    observers: List[OracleObserver] = []

    def build(*args, **kwargs) -> FlowSimulator:
        sim = original(*args, **kwargs)
        if oracle:
            observers.append(OracleObserver(sim))
            sim.add_observer(observers[-1])
        return sim

    specs_mod.FlowSimulator = build
    try:
        yield observers
    finally:
        specs_mod.FlowSimulator = original
