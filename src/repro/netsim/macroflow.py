"""Macro-flow aggregation: one solver slot per (route, weight, tenant).

NCCL-style collectives launch many *channels* per connection — flows that
share the exact same link path, fairness weight, and owning job.  Under
weighted max-min fairness such flows are interchangeable: k flows of
weight ``w`` on a path receive exactly the allocation of one flow of
weight ``k*w``, split evenly.  :class:`MacroFlowSolver` exploits this by
registering a single *macro group* per ``(path, weight, job_id)`` key
with the underlying solver and reconstructing member rates as
``member_weight * level`` — the same IEEE product ``weight * level`` the
per-flow reference solver computes per slot, so member rates are
bit-identical whenever the aggregated group weight is exact
(``k * w == w + w + ... + w``; always true for the default weight 1.0
and for any dyadic weight at realistic fan-outs).

This is the engine's only solver path: :class:`~repro.netsim.engine.
FlowSimulator` always runs ``MacroFlowSolver(IncrementalFairnessSolver)``.
A flow whose (path, weight, job) is unique is a group of one.

Membership churn (a member joining, leaving, gating, or un-gating)
resizes the group's weight in place — one O(1) solver delta instead of a
structural add/remove — and the next solve re-derives every member rate
of each touched or rate-changed group.  Link loads and utilization are
reported from group rates; a group's rate ``(k*w)*level`` can differ
from the sum of its member rates ``k*(w*level)`` by one ulp, which is
why exactness tests compare member rates, not link loads.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from .fairness import IncrementalFairnessSolver, compaction_due
from .flows import Flow


class _MacroGroup:
    """Solver-facing aggregate of interchangeable member flows.

    Duck-types the slice of :class:`~repro.netsim.flows.Flow` the solvers
    read (``flow_id`` / ``links`` / ``weight`` / ``active`` / ``job_id``).
    """

    __slots__ = (
        "flow_id",
        "path",
        "links",
        "job_id",
        "member_weight",
        "weight",
        "active",
        "members",
        "active_ids",
    )

    def __init__(self, template: Flow, flow_id: str) -> None:
        self.flow_id = flow_id
        self.path = template.path
        self.links = template.links
        self.job_id = template.job_id
        self.member_weight = template.weight
        self.weight = template.weight
        self.active = False
        self.members: Dict[str, Flow] = {}
        self.active_ids: Set[str] = set()


class MacroFlowSolver:
    """Engine-facing solver that aggregates flows into macro groups."""

    def __init__(self, base: IncrementalFairnessSolver) -> None:
        self._base = base
        self._group_ids = itertools.count()
        self._groups: Dict[Tuple, _MacroGroup] = {}
        self._group_of: Dict[str, _MacroGroup] = {}
        # groups with membership/gate churn since the last solve; their
        # member rates are re-derived even if the group's own aggregate
        # rate happens to come back unchanged (level may still move when
        # the weight moved with it).  An insertion-ordered dict, not a
        # set of groups, which would iterate in address order.
        self._touched: Dict[_MacroGroup, None] = {}
        # Engine-facing member slots, numbered exactly as the per-flow
        # IncrementalFairnessSolver numbers its slots: appended, and
        # reused (highest first) only after a compaction purged removed
        # members' incidence entries (``compaction_due``).  Changed
        # slots are reported in ascending order, as the per-flow solve
        # reports them, so equal-ETA completions break ties exactly as
        # under per-flow solving, whatever order groups were touched in.
        self._slots: List[Optional[Flow]] = []
        self._slot_of: Dict[str, int] = {}
        self._free_slots: List[int] = []
        self._nnz = 0
        self._dead_nnz = 0
        self._member_rate: Dict[str, float] = {}
        self.macro_peak_group_size = 0

    # -- counter/telemetry delegation ----------------------------------
    @property
    def full_rebuilds(self) -> int:
        return self._base.full_rebuilds

    @property
    def delta_updates(self) -> int:
        return self._base.delta_updates

    @property
    def delta_flows_total(self) -> int:
        return self._base.delta_flows_total

    @property
    def last_delta(self) -> int:
        return self._base.last_delta

    @property
    def solves_skipped(self) -> int:
        return self._base.solves_skipped

    @property
    def scalar_solves(self) -> int:
        return self._base.scalar_solves

    @property
    def macro_groups(self) -> int:
        return len(self._groups)

    @property
    def macro_members(self) -> int:
        return len(self._group_of)

    # -- group maintenance ---------------------------------------------
    def _sync_touched(self) -> None:
        """Push every touched group's membership state down to the base.

        Runs once per solve (and before penalty scaling), not per
        membership change — a k-member join burst costs one
        ``set_weight``, not k.  Idempotent: an in-sync group issues no
        solver delta.
        """
        for group in self._touched:
            self._sync_group(group)

    def _sync_group(self, group: _MacroGroup) -> None:
        count = len(group.active_ids)
        if count == 0:
            if group.active:
                self._base.set_active(group, False)
                group.active = False
            return
        weight = group.member_weight * count
        if weight != group.weight:
            self._base.set_weight(group, weight)
            group.weight = weight
        if not group.active:
            self._base.set_active(group, True)
            group.active = True

    def add_flow(self, flow: Flow) -> None:
        self.add_flows([flow])

    def add_flows(self, flows: List[Flow]) -> None:
        """Register a sibling batch sharing one (path, weight, tenant).

        The engine's :meth:`~FlowSimulator.add_flows` guarantees the batch
        is parameter-identical, so the group lookup runs once for the
        whole channel fan-out instead of once per member.
        """
        first = flows[0]
        key = (first.path, first.weight, first.job_id)
        group = self._groups.get(key)
        if group is None:
            group = _MacroGroup(first, f"macro{next(self._group_ids)}")
            self._groups[key] = group
            self._base.add_flow(group)
        members = group.members
        active_ids = group.active_ids
        group_of = self._group_of
        member_rate = self._member_rate
        slot_of = self._slot_of
        slots = self._slots
        free_slots = self._free_slots
        self._nnz += len(first.links) * len(flows)
        for flow in flows:
            fid = flow.flow_id
            members[fid] = flow
            if flow.active:
                active_ids.add(fid)
            group_of[fid] = group
            if free_slots:
                slot = free_slots.pop()
                slots[slot] = flow
            else:
                slot = len(slots)
                slots.append(flow)
            slot_of[fid] = slot
            member_rate[fid] = 0.0
        self._touched[group] = None
        if len(members) > self.macro_peak_group_size:
            self.macro_peak_group_size = len(members)

    def remove_flow(self, flow: Flow) -> None:
        self.remove_flows([flow])

    def remove_flows(self, flows: List[Flow]) -> None:
        """Deregister a batch of members (one completion burst).

        Hoisting the bookkeeping lookups matters because a channelized
        completion removes whole sibling sets at one instant.
        """
        group_of = self._group_of
        member_rate = self._member_rate
        slot_of = self._slot_of
        slots = self._slots
        touched = self._touched
        for flow in flows:
            fid = flow.flow_id
            group = group_of.pop(fid, None)
            if group is None:
                continue
            group.members.pop(fid, None)
            group.active_ids.discard(fid)
            member_rate.pop(fid, None)
            slot = slot_of.pop(fid, None)
            if slot is not None:
                slots[slot] = None
                self._dead_nnz += len(flow.links)
            if not group.members:
                self._base.remove_flow(group)
                del self._groups[
                    (group.path, group.member_weight, group.job_id)
                ]
                touched.pop(group, None)
            else:
                touched[group] = None

    def set_active(self, flow: Flow, active: bool) -> None:
        group = self._group_of.get(flow.flow_id)
        if group is None:
            return
        if active:
            group.active_ids.add(flow.flow_id)
        else:
            group.active_ids.discard(flow.flow_id)
        self._touched[group] = None

    def set_capacity(self, link_id: str, capacity: float) -> None:
        self._base.set_capacity(link_id, capacity)

    def scaled_caps(self, penalty: float) -> np.ndarray:
        """Penalized capacities from the groups' *current* activity.

        The base solver reads each group's active bit, so deferred
        membership changes are flushed first; otherwise the first solve
        after a join would see the penalty of the previous membership.
        """
        self._sync_touched()
        return self._base.scaled_caps(penalty)

    # -- queries --------------------------------------------------------
    def bottleneck_of(self, flow_id: str) -> Optional[str]:
        group = self._group_of.get(flow_id)
        if group is None:
            return None
        return self._base.bottleneck_of(group.flow_id)

    def bottleneck_of_slot(self, slot: int) -> Optional[str]:
        flow = self._slots[slot]
        if flow is None:
            return None
        return self.bottleneck_of(flow.flow_id)

    def rates_by_id(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for group in self._groups.values():
            level = self._base.level_of(group.flow_id)
            for fid, member in group.members.items():
                if fid in group.active_ids:
                    out[fid] = member.weight * level
                else:
                    out[fid] = 0.0
        return out

    def link_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        return self._base.link_utilization(min_utilization)

    # -- the solve ------------------------------------------------------
    def solve(
        self, capacities: Optional[np.ndarray] = None
    ) -> Tuple[List[int], Dict[int, float]]:
        """Solve groups in the base, then fan rates back out to members.

        Returns ``(changed_member_slots, {slot: rate})``.  A member is
        reported when its reconstructed rate differs from the last rate
        reported for it, which covers both rate moves from contention
        elsewhere and rate-0 reports for freshly gated members.
        """
        base = self._base
        if compaction_due(self._dead_nnz, self._nnz):
            self._nnz -= self._dead_nnz
            self._dead_nnz = 0
            self._free_slots = [
                slot for slot, flow in enumerate(self._slots) if flow is None
            ]
        self._sync_touched()
        changed_groups, _ = base.solve(capacities)
        pending = self._touched
        self._touched = {}
        base_table = base._flows
        for gslot in changed_groups.tolist():
            group = base_table[gslot]
            if group is not None:
                pending[group] = None
        changed: List[int] = []
        rates: Dict[int, float] = {}
        member_rate = self._member_rate
        slot_of = self._slot_of
        for group in pending:
            if not group.members:
                continue
            level = base.level_of(group.flow_id)
            active_ids = group.active_ids
            for fid, member in group.members.items():
                rate = member.weight * level if fid in active_ids else 0.0
                if member_rate[fid] != rate:
                    member_rate[fid] = rate
                    mslot = slot_of[fid]
                    rates[mslot] = rate
                    changed.append(mslot)
        changed.sort()
        return changed, rates
