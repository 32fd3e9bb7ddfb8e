"""Span-based tracing of collective and reconfiguration lifecycles.

A :class:`Span` is one named interval on the simulation clock, optionally
nested under a parent span and carrying point events ("rank_launch",
"first_flow_start", ...).  The service opens one root span per collective
as the request crosses the shim->frontend boundary and phase children as
it moves through the proxy and transport layers:

    allreduce c0.s3                    [issue ............. last flow end]
      queued                           [issue .. first proxy launch]
      launch                                    [launch .. first flow]
      network                                            [flows draining]

Reconfigurations get their own root span with a ``barrier`` child, so the
Figure 4 stall is directly visible in a Chrome trace.  A collective's
root span ends with ``last_flow_end`` when it completes and with
``aborted`` (carrying the error) when failure handling terminates it.
The §4.3 trace the TS policy reads is not derived from spans: it is the
communicator's list of :class:`~repro.core.communicator.CollectiveInstance`
objects (:class:`~repro.core.tracing.CommTrace`).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

from .ringbuffer import RingBuffer

#: Canonical point-event names stamped on collective spans.
EVENT_RANK_LAUNCH = "rank_launch"
EVENT_FIRST_FLOW_START = "first_flow_start"
EVENT_LAST_FLOW_END = "last_flow_end"
EVENT_BARRIER_RESOLVED = "barrier_resolved"
EVENT_RANK_APPLIED = "rank_applied"
EVENT_HELD = "held_by_reconfig"


class Span:
    """One interval on the simulated clock."""

    __slots__ = ("span_id", "name", "category", "start", "end", "parent_id",
                 "attrs", "events")

    def __init__(
        self,
        span_id: int,
        name: str,
        start: float,
        *,
        category: str = "span",
        parent_id: Optional[int] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.category = category
        self.start = start
        self.end: Optional[float] = None
        self.parent_id = parent_id
        self.attrs: Dict[str, object] = dict(attrs or {})
        self.events: List[Tuple[str, float, Dict[str, object]]] = []

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.start

    def finish(self, t: float) -> "Span":
        if self.end is not None:
            raise ValueError(f"span {self.name!r} finished twice")
        if t < self.start:
            raise ValueError(f"span {self.name!r} cannot end before it starts")
        self.end = t
        return self

    def mark(self, name: str, t: float, **attrs: object) -> None:
        """Stamp a point event on the span."""
        self.events.append((name, t, dict(attrs)))

    def event_time(self, name: str) -> Optional[float]:
        """Time of the first event called ``name``, or None."""
        for event_name, t, _ in self.events:
            if event_name == name:
                return t
        return None

    def event_times(self, name: str) -> List[float]:
        return [t for event_name, t, _ in self.events if event_name == name]

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "events": [
                {"name": name, "time": t, "attrs": attrs}
                for name, t, attrs in self.events
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.end:.6f}" if self.end is not None else "..."
        return f"Span({self.name!r}, [{self.start:.6f}, {end}], id={self.span_id})"


class SpanRecorder:
    """Bounded store of every span recorded by one telemetry hub.

    Span ids are assigned from a per-recorder counter, so exports are
    deterministic run to run.  The buffer keeps the most recent
    ``max_spans`` spans; the eviction count is reported by exporters.
    """

    def __init__(self, max_spans: int = 8192) -> None:
        self._spans: RingBuffer[Span] = RingBuffer(max_spans)
        self._ids = itertools.count(1)

    def begin(
        self,
        name: str,
        t: float,
        *,
        category: str = "span",
        parent: Optional[Span] = None,
        **attrs: object,
    ) -> Span:
        span = Span(
            next(self._ids),
            name,
            t,
            category=category,
            parent_id=parent.span_id if parent is not None else None,
            attrs=attrs,
        )
        self._spans.append(span)
        return span

    # ------------------------------------------------------------------
    def spans(self, category: Optional[str] = None) -> List[Span]:
        if category is None:
            return self._spans.to_list()
        return [s for s in self._spans if s.category == category]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    def find(self, **attrs: object) -> List[Span]:
        """Spans whose attrs contain every given key/value pair."""
        return [
            s
            for s in self._spans
            if all(s.attrs.get(k) == v for k, v in attrs.items())
        ]

    @property
    def evicted(self) -> int:
        return self._spans.evicted

    def __len__(self) -> int:
        return len(self._spans)
