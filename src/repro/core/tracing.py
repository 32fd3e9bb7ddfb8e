"""Fine-grained collective tracing (§4.3).

"The MCCS service can perform fine-grained tracing of collectives issued
by applications to determine properties of their computation and
communication patterns.  The controller consumes this data to make a
policy decision."  The time-window traffic scheduling policy (TS) is the
consumer in the paper: it "invokes MCCS tracing API and requests a trace
of a prioritized application [and] analyzes the idle cycles of the
application when it is not issuing collectives."

A communicator's trace is its list of issued
:class:`~repro.core.communicator.CollectiveInstance` objects, the one
per-collective record: ``issue_time``, ``start_time`` (first flow of the
final attempt) and ``end_time`` are read straight off the instance, and
every issued collective is kept for the communicator's lifetime.  The
exact queue / serialization / contention split of one collective is the
causal trace's :class:`~repro.telemetry.causal.CriticalPathReport`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from .communicator import CollectiveInstance


class CommTrace:
    """One communicator's issued collectives, with idle-cycle analysis."""

    def __init__(self, comm_id: int, app_id: str) -> None:
        self.comm_id = comm_id
        self.app_id = app_id
        #: Every issued collective, oldest first; index ``i`` is ``seq=i``.
        self.instances: List[CollectiveInstance] = []

    def record_issue(self, instance: CollectiveInstance) -> None:
        self.instances.append(instance)

    def busy_intervals(self) -> List[Tuple[float, float]]:
        """Merged [start, end) intervals during which collectives ran.

        Intervals run from the moment traffic could enter the network
        (start_time when known, otherwise issue time) to completion.
        """
        spans = sorted(
            (i.start_time if i.start_time is not None else i.issue_time, i.end_time)
            for i in self.instances
            if i.end_time is not None
        )
        merged: List[Tuple[float, float]] = []
        for start, end in spans:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def idle_intervals(self) -> List[Tuple[float, float]]:
        """Gaps between consecutive busy intervals (the compute phases)."""
        busy = self.busy_intervals()
        return [
            (busy[i][1], busy[i + 1][0])
            for i in range(len(busy) - 1)
            if busy[i + 1][0] > busy[i][1]
        ]

    def communication_period(self) -> Optional[Tuple[float, float]]:
        """Estimated (busy, idle) durations of the steady-state iteration.

        Training loops are periodic: each iteration has a communication
        burst followed by a compute (idle-for-the-network) phase.  We take
        medians over the observed intervals, which is robust to warmup
        outliers.  Returns None when there is not enough signal.
        """
        busy = self.busy_intervals()
        idle = self.idle_intervals()
        if len(busy) < 2 or not idle:
            return None
        busy_durations = sorted(e - s for s, e in busy)
        idle_durations = sorted(e - s for s, e in idle)
        return (
            busy_durations[len(busy_durations) // 2],
            idle_durations[len(idle_durations) // 2],
        )
