"""Weighted max-min fair rate allocation via progressive filling.

The paper's large-scale simulator "assumes per-flow fairness" (§6.5); this
module implements the canonical progressive-filling (water-filling)
algorithm that realizes weighted max-min fairness over a capacitated link
set.  Two implementations are provided:

* :func:`progressive_filling` — a direct, readable reference version: the
  oracle the tests hold the engine to.
* :class:`IncrementalFairnessSolver` — the engine's persistent solver.  It
  keeps the link index, the CSR-style flow/link incidence arrays, and the
  weight vector alive across recomputations, applying O(Δ) structural
  updates on flow add/remove/gate and capacity change; only the numpy
  water-filling itself is global (max-min fairness is a global property).

Both produce the same allocation: to the last bit at every rate
recomputation of whole experiment replays, and within relative 1e-9
under randomized hypothesis churn with arbitrary float weights.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .flows import Flow

_EPS = 1e-12


def progressive_filling(
    flows: Sequence[Flow], capacities: Mapping[str, float]
) -> Dict[str, float]:
    """Reference weighted max-min allocation.

    Args:
        flows: Flows to allocate; gated/completed flows receive rate 0.
        capacities: Map of link id -> capacity (bytes/s).

    Returns:
        Map of flow id -> rate in bytes/s.
    """
    rates: Dict[str, float] = {f.flow_id: 0.0 for f in flows}
    active = [f for f in flows if f.active]
    for flow in active:
        for link in flow.path:
            if link not in capacities:
                raise KeyError(f"flow {flow.flow_id} uses unknown link {link!r}")

    residual = dict(capacities)
    link_members: Dict[str, List[Flow]] = {}
    for flow in active:
        for link in flow.links:
            link_members.setdefault(link, []).append(flow)

    frozen: set = set()
    while len(frozen) < len(active):
        # Fair share of each link among its still-unfrozen flows.
        best_share = None
        for link, members in link_members.items():
            weight = sum(f.weight for f in members if f.flow_id not in frozen)
            if weight <= 0:
                continue
            share = residual[link] / weight
            if best_share is None or share < best_share - _EPS:
                best_share = share
        if best_share is None:
            break
        best_share = max(best_share, 0.0)
        # Freeze every flow crossing a bottleneck link at weight*share.
        to_freeze: List[Flow] = []
        for link, members in link_members.items():
            weight = sum(f.weight for f in members if f.flow_id not in frozen)
            if weight <= 0:
                continue
            if residual[link] / weight <= best_share + _EPS:
                for f in members:
                    if f.flow_id not in frozen:
                        to_freeze.append(f)
        if not to_freeze:
            break
        for f in to_freeze:
            if f.flow_id in frozen:
                continue
            rate = f.weight * best_share
            rates[f.flow_id] = rate
            frozen.add(f.flow_id)
            for link in f.links:
                residual[link] = max(residual[link] - rate, 0.0)
    return rates


#: Live-entry count at or below which :meth:`IncrementalFairnessSolver.
#: solve` runs its scalar (pure-Python) progressive-filling core instead
#: of the vectorized one.  Small problems are dominated by numpy call
#: overhead (~1 µs per op, ~15 ops per round); the scalar core performs
#: the *same arithmetic in the same order*, so the allocation is
#: bit-identical either way (asserted by the hypothesis churn suite).
SCALAR_SOLVE_MAX_ENTRIES = 96

_EMPTY_CHANGED = np.zeros(0, dtype=np.int64)


def compaction_due(dead_nnz: int, nnz: int) -> bool:
    """Whether tombstoned incidence entries (``dead_nnz`` of ``nnz``) are
    purged, freeing their slots for reuse, at the next solve."""
    return dead_nnz > 64 and dead_nnz * 2 > nnz


class IncrementalFairnessSolver:
    """Persistent weighted max-min solver with O(Δ) structural updates.

    The solver owns the link index, the capacity vector, the flat
    flow/link incidence arrays (CSR-style: every registered flow appends
    one contiguous run of entries), and the weight/active vectors.  Flow
    churn mutates this state in O(links-per-flow); nothing is rebuilt per
    recomputation.  Removed flows leave tombstoned incidence entries that
    are purged by an occasional compaction pass once they outnumber the
    live entries — the only "full rebuild" left, counted in
    :attr:`full_rebuilds` so telemetry can show rebuilds being replaced by
    Δ-updates.

    :meth:`solve` runs the same progressive filling as
    :func:`progressive_filling` over the persistent arrays and returns the
    slots whose rate actually moved, which is what lets the engine
    invalidate only the completion-heap entries that changed.  A solve
    with no pending structural deltas is answered from the cached
    allocation (``solves_skipped``), and sub-:data:`SCALAR_SOLVE_MAX_ENTRIES`
    problems take a scalar fast path — both bit-identical to the full
    vectorized solve.  ``solve_epoch`` increments whenever the allocation
    may have moved; the derived views (:meth:`rates_by_id`,
    :meth:`link_loads`, :meth:`link_utilization`) are cached on it.
    """

    _GROW = 1.5

    def __init__(self, capacities: Mapping[str, float]) -> None:
        self._link_ids: List[str] = list(capacities)
        self._link_index: Dict[str, int] = {
            link: i for i, link in enumerate(self._link_ids)
        }
        self._caps = np.array(
            [capacities[l] for l in self._link_ids], dtype=float
        )
        # per-slot state (a slot is a stable integer id for one flow)
        self._flows: List[Optional[Flow]] = []
        self._slot_of: Dict[str, int] = {}
        self._free_slots: List[int] = []
        self._weights = np.zeros(0, dtype=float)
        self._active = np.zeros(0, dtype=bool)
        self._in_use = np.zeros(0, dtype=bool)
        self._rates = np.zeros(0, dtype=float)
        # per-slot water level of the round that froze the slot in the
        # last solve; a slot's rate is exactly ``weight * level``.  Macro
        # aggregation reconstructs member rates from this (see
        # :mod:`repro.netsim.macroflow`).
        self._levels = np.zeros(0, dtype=float)
        # per-slot index of the link that froze the slot in the last solve
        # (-1 = not frozen / unknown); the causal tracer reads this to
        # attribute a flow's current rate to its bottleneck link.
        self._bneck = np.full(0, -1, dtype=np.int64)
        # per-slot contiguous incidence span: slot -> (start, length)
        self._spans: List[Tuple[int, int]] = []
        self._flat_links = np.zeros(64, dtype=np.int64)
        self._flat_slots = np.zeros(64, dtype=np.int64)
        self._nnz = 0
        self._dead_nnz = 0
        self._loads = np.zeros(len(self._caps), dtype=float)
        self._loads_stale = False
        # slots whose rate was force-zeroed since the last solve (flow
        # removed or gated while carrying a nonzero rate); they are part
        # of the next solve's changed set without scanning every slot.
        self._deactivated: List[int] = []
        # path -> precomputed link-index list (append-only link index
        # keeps these valid across add_links()).
        self._path_idx: Dict[Tuple[str, ...], List[int]] = {}
        # epoch-keyed caches of the derived dict views
        self.solve_epoch = 0
        self._rates_by_id_cache: Tuple[int, Dict[str, float]] = (-1, {})
        self._loads_cache: Tuple[int, Dict[str, float]] = (-1, {})
        self._util_cache: Tuple[int, float, Dict[str, float]] = (-1, 0.0, {})
        # counters (read by the engine's perf_counters())
        self.full_rebuilds = 1  # the initial build
        self.delta_updates = 0
        self.delta_flows_total = 0
        self.last_delta = 0
        self.solves_skipped = 0
        self.scalar_solves = 0
        self._pending_delta = 0
        self._solved_once = False
        self._last_override = False

    # -- structural updates (all O(Δ)) ---------------------------------
    def add_links(self, capacities: Mapping[str, float]) -> None:
        """Register additional links (append-only; existing indices keep)."""
        fresh = [l for l in capacities if l not in self._link_index]
        if not fresh:
            return
        for link in fresh:
            self._link_index[link] = len(self._link_ids)
            self._link_ids.append(link)
        grown = np.empty(len(self._link_ids), dtype=float)
        grown[: len(self._caps)] = self._caps
        grown[len(self._caps):] = [capacities[l] for l in fresh]
        self._caps = grown
        loads = np.zeros(len(self._link_ids), dtype=float)
        loads[: len(self._loads)] = self._loads
        self._loads = loads
        self._note_delta()

    def add_flow(self, flow: Flow) -> None:
        link_idx = self._path_idx.get(flow.links)
        if link_idx is None:
            link_idx = []
            for link in flow.links:
                idx = self._link_index.get(link)
                if idx is None:
                    raise KeyError(
                        f"flow {flow.flow_id} uses unknown link {link!r}"
                    )
                link_idx.append(idx)
            self._path_idx[flow.links] = link_idx
        if self._free_slots:
            slot = self._free_slots.pop()
            self._flows[slot] = flow
        else:
            slot = len(self._flows)
            self._flows.append(flow)
            self._spans.append((0, 0))
            if slot >= len(self._weights):
                self._grow_slots(slot + 1)
        self._slot_of[flow.flow_id] = slot
        self._weights[slot] = flow.weight
        self._active[slot] = flow.active
        self._in_use[slot] = True
        self._rates[slot] = 0.0
        self._levels[slot] = 0.0
        self._bneck[slot] = -1
        k = len(link_idx)
        if self._nnz + k > len(self._flat_links):
            self._grow_flat(self._nnz + k)
        self._flat_links[self._nnz : self._nnz + k] = link_idx
        self._flat_slots[self._nnz : self._nnz + k] = slot
        self._spans[slot] = (self._nnz, k)
        self._nnz += k
        self._note_delta()

    def remove_flow(self, flow: Flow) -> None:
        slot = self._slot_of.pop(flow.flow_id, None)
        if slot is None:
            return
        self._flows[slot] = None
        self._in_use[slot] = False
        self._active[slot] = False
        if self._rates[slot] != 0.0:
            # Part of the next solve's changed set: rates are updated
            # in place, so zeroed slots must be remembered explicitly.
            self._deactivated.append(slot)
        self._rates[slot] = 0.0
        self._levels[slot] = 0.0
        self._dead_nnz += self._spans[slot][1]
        # The slot is reusable only after compaction purges its incidence
        # entries; until then reuse would misattribute them.
        self._note_delta()

    def set_active(self, flow: Flow, active: bool) -> None:
        slot = self._slot_of.get(flow.flow_id)
        if slot is not None:
            self._active[slot] = active
            if not active and self._rates[slot] != 0.0:
                self._deactivated.append(slot)
                self._rates[slot] = 0.0
                self._levels[slot] = 0.0
            self._note_delta()

    def set_weight(self, flow: Flow, weight: float) -> None:
        """Change a registered flow's weight in place (macro aggregation
        resizes a group's weight as members join/leave/gate)."""
        slot = self._slot_of.get(flow.flow_id)
        if slot is not None:
            self._weights[slot] = weight
            self._note_delta()

    def set_capacity(self, link_id: str, capacity: float) -> None:
        self._caps[self._link_index[link_id]] = capacity
        self._note_delta()

    def _note_delta(self) -> None:
        self._pending_delta += 1
        self.delta_updates += 1

    def _grow_slots(self, need: int) -> None:
        size = max(need, int(len(self._weights) * self._GROW) + 8)
        for name in ("_weights", "_rates", "_levels"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=float)
            new[: len(old)] = old
            setattr(self, name, new)
        for name in ("_active", "_in_use"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=bool)
            new[: len(old)] = old
            setattr(self, name, new)
        old = self._bneck
        new = np.full(size, -1, dtype=np.int64)
        new[: len(old)] = old
        self._bneck = new

    def _grow_flat(self, need: int) -> None:
        size = max(need, int(len(self._flat_links) * self._GROW) + 8)
        for name in ("_flat_links", "_flat_slots"):
            old = getattr(self, name)
            new = np.zeros(size, dtype=np.int64)
            new[: self._nnz] = old[: self._nnz]
            setattr(self, name, new)

    def _compact(self) -> None:
        """Purge tombstoned incidence entries and reclaim free slots."""
        keep = self._in_use[self._flat_slots[: self._nnz]]
        self._flat_links[: int(keep.sum())] = self._flat_links[: self._nnz][keep]
        self._flat_slots[: int(keep.sum())] = self._flat_slots[: self._nnz][keep]
        self._nnz = int(keep.sum())
        self._dead_nnz = 0
        # Recompute the spans of surviving slots (runs stay contiguous
        # because compaction preserves order) and free the dead slots.
        self._free_slots = []
        spans = [(0, 0)] * len(self._flows)
        pos = 0
        while pos < self._nnz:
            slot = int(self._flat_slots[pos])
            end = pos
            while end < self._nnz and self._flat_slots[end] == slot:
                end += 1
            spans[slot] = (pos, end - pos)
            pos = end
        self._spans = spans
        for slot, flow in enumerate(self._flows):
            if flow is None:
                self._free_slots.append(slot)
        self.full_rebuilds += 1

    # -- queries --------------------------------------------------------
    def flow_at(self, slot: int) -> Optional[Flow]:
        return self._flows[slot]

    def bottleneck_of_slot(self, slot: int) -> Optional[str]:
        """O(1) bottleneck lookup when the caller already holds the slot."""
        idx = int(self._bneck[slot])
        return self._link_ids[idx] if idx >= 0 else None

    def bottleneck_of(self, flow_id: str) -> Optional[str]:
        """Link that froze this flow's rate in the most recent solve.

        ``None`` for unknown flows and for flows that were inactive (gated
        or zero-weight path) when the last allocation ran.
        """
        slot = self._slot_of.get(flow_id)
        if slot is None:
            return None
        idx = int(self._bneck[slot])
        return self._link_ids[idx] if idx >= 0 else None

    def capacity(self, link_id: str) -> float:
        return float(self._caps[self._link_index[link_id]])

    def _refresh_loads(self) -> np.ndarray:
        """Per-link allocated rate, recomputed lazily after a solve.

        Most solves are never followed by a utilization query before the
        next solve, so the aggregation is deferred to first read.  Removed
        flows have their rate zeroed and tombstoned entries therefore
        contribute exactly 0.0 to the sums.
        """
        if self._loads_stale:
            self._loads = np.bincount(
                self._flat_links[: self._nnz],
                weights=self._rates[self._flat_slots[: self._nnz]],
                minlength=len(self._caps),
            )
            self._loads_stale = False
        return self._loads

    def link_loads(self) -> Dict[str, float]:
        """Allocated rate per link from the most recent :meth:`solve`.

        Cached on ``solve_epoch`` — the telemetry sampler reads this every
        tick and most ticks land between solves.  Treat the returned dict
        as read-only.
        """
        epoch, cached = self._loads_cache
        if epoch == self.solve_epoch:
            return cached
        loads = self._refresh_loads()
        loaded = np.flatnonzero(loads > 0.0)
        result = {
            self._link_ids[int(i)]: float(loads[int(i)]) for i in loaded
        }
        self._loads_cache = (self.solve_epoch, result)
        return result

    def link_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        """load/capacity per link from the most recent :meth:`solve`.

        Cached on ``(solve_epoch, min_utilization)``; treat the returned
        dict as read-only.
        """
        epoch, cached_min, cached = self._util_cache
        if epoch == self.solve_epoch and cached_min == min_utilization:
            return cached
        with np.errstate(invalid="ignore"):
            util = self._refresh_loads() / self._caps
        hot = np.flatnonzero(util >= max(min_utilization, 1e-300))
        result = {self._link_ids[int(i)]: float(util[int(i)]) for i in hot}
        self._util_cache = (self.solve_epoch, min_utilization, result)
        return result

    def scaled_caps(self, penalty: float) -> np.ndarray:
        """Capacities with the burst-interference model applied: links
        carrying active flows of two or more distinct jobs lose
        ``penalty`` of their capacity (see ``FlowSimulator.__init__``)."""
        jobs_on_link: Dict[int, set] = {}
        for slot, flow in enumerate(self._flows):
            if flow is None or not self._active[slot]:
                continue
            start, k = self._spans[slot]
            for idx in self._flat_links[start : start + k]:
                jobs_on_link.setdefault(int(idx), set()).add(flow.job_id)
        caps = self._caps.copy()
        scale = 1.0 - penalty
        for idx, jobs in jobs_on_link.items():
            if len(jobs) >= 2:
                caps[idx] *= scale
        return caps

    # -- the solve ------------------------------------------------------
    def solve(
        self, capacities: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Progressive filling over the persistent structure.

        Args:
            capacities: Optional per-link capacity override (same indexing
                as the solver's link order), used by the interference model.

        Returns:
            ``(changed_slots, rates)``: the slots whose allocation moved
            since the previous solve, and the full per-slot rate vector
            (the solver's live array — treat it as read-only).
        """
        override = capacities is not None
        if (
            self._pending_delta == 0
            and self._solved_once
            and not override
            and not self._last_override
        ):
            # Nothing changed structurally since the previous solve with
            # default capacities: the cached allocation is still exact.
            self.last_delta = 0
            self.solves_skipped += 1
            return _EMPTY_CHANGED, self._rates
        self.last_delta = self._pending_delta
        self.delta_flows_total += self._pending_delta
        self._pending_delta = 0
        self._last_override = override
        self._solved_once = True
        self.solve_epoch += 1
        if compaction_due(self._dead_nnz, self._nnz):
            self._compact()
        caps = self._caps if capacities is None else capacities
        flat_l = self._flat_links[: self._nnz]
        flat_s = self._flat_slots[: self._nnz]
        alive = self._in_use & self._active
        entry_live = alive[flat_s]
        fl = flat_l[entry_live]
        fs = flat_s[entry_live]
        self._loads_stale = True
        # Slots force-zeroed since the last solve (removed/gated while
        # rated) are changed even though they are no longer live; slots
        # zeroed but reactivated before this solve are covered by the
        # live compare below instead.
        deact = self._deactivated
        if deact:
            self._deactivated = []
            deact = [s for s in deact if not alive[s]]
        if fl.size == 0:
            if not deact:
                return _EMPTY_CHANGED, self._rates
            return np.sort(np.asarray(deact, dtype=np.int64)), self._rates
        if fl.size <= SCALAR_SOLVE_MAX_ENTRIES:
            self.scalar_solves += 1
            changed_list = self._solve_scalar(caps, fl, fs)
            changed_list.extend(deact)
            if not changed_list:
                return _EMPTY_CHANGED, self._rates
            return np.sort(np.asarray(changed_list, dtype=np.int64)), self._rates
        # Compact both dimensions to what is live *this* solve: a large
        # fabric has thousands of links and registered slots, but a
        # typical recomputation touches a few hundred of each, and the
        # per-round numpy work below scales with these sizes.  The
        # remapping is order-preserving, so every bincount accumulates
        # the same values in the same order and the allocation stays
        # bit-identical to a full-width solve.
        live_mask = np.zeros(len(caps), dtype=bool)
        live_mask[fl] = True
        live_links = np.flatnonzero(live_mask)
        nl = live_links.size
        link_lut = np.empty(len(caps), dtype=np.int64)
        link_lut[live_links] = np.arange(nl)
        fl = link_lut[fl]
        active_slots = np.flatnonzero(alive)
        na = active_slots.size
        slot_lut = np.empty(len(alive), dtype=np.int64)
        slot_lut[active_slots] = np.arange(na)
        fs = slot_lut[fs]
        self._bneck[active_slots] = -1
        w = self._weights[active_slots]
        wE = w[fs]  # per-entry weight of the entry's flow
        # Per-flow fill level: the water level ``best`` of the round
        # that froze the flow; a flow's rate is ``weight * level``,
        # the same IEEE product the reference loop computes.
        levels = np.zeros(na, dtype=float)
        residual = caps[live_links]  # fancy index -> fresh copy
        share = np.empty(nl, dtype=float)
        freeze = np.empty(na, dtype=bool)
        # Progressive filling.  Frozen entries are dropped each round,
        # so late rounds touch shrinking arrays; dropped zero-weight
        # contributions never change the bincount partial sums.  The
        # frozen bandwidth leaving each link is computed as
        # ``(link_weight - next_link_weight) * best`` — the two
        # bincounts bracket the drop, so a separate aggregation of the
        # frozen entries is unnecessary (links without frozen entries
        # keep bit-identical partial sums and subtract exactly 0).
        link_weight = np.bincount(fl, weights=wE, minlength=nl)
        while True:
            share.fill(np.inf)
            np.divide(
                residual, link_weight, out=share, where=link_weight > 0
            )
            best = float(share.min())
            if not math.isfinite(best):
                break
            if best < 0.0:
                best = 0.0
            bottleneck = share <= best * (1 + 1e-9) + _EPS
            # The minimising link is live (weight > 0), so at least one
            # entry hits a bottleneck link and the loop always shrinks.
            hit = bottleneck[fl]
            freeze.fill(False)
            freeze[fs[hit]] = True
            levels[freeze] = best
            # Attribute each frozen slot to the (a) bottleneck link
            # that froze it, mapped back to global link/slot indices.
            self._bneck[active_slots[fs[hit]]] = live_links[fl[hit]]
            keep = ~freeze[fs]
            fl = fl[keep]
            fs = fs[keep]
            wE = wE[keep]
            if not fs.size:
                break
            new_weight = np.bincount(fl, weights=wE, minlength=nl)
            np.subtract(link_weight, new_weight, out=link_weight)
            np.multiply(link_weight, best, out=link_weight)
            np.subtract(residual, link_weight, out=residual)
            np.maximum(residual, 0.0, out=residual)
            link_weight = new_weight
        new = levels * w
        old = self._rates[active_slots]
        changed_active = active_slots[new != old]
        self._rates[active_slots] = new
        self._levels[active_slots] = levels
        if deact:
            changed = np.sort(
                np.concatenate(
                    [changed_active, np.asarray(deact, dtype=np.int64)]
                )
            )
        else:
            changed = changed_active
        return changed, self._rates

    def _solve_scalar(
        self, caps: np.ndarray, fl: np.ndarray, fs: np.ndarray
    ) -> List[int]:
        """Scalar progressive filling for small live sets.

        Performs exactly the arithmetic of the vectorized loop — per-link
        weight sums accumulate in incidence-entry order (the bincount
        order), the round water level is the same minimum, the freeze
        threshold/attribution/residual updates are the same IEEE
        expressions — so the allocation is bit-identical.  Below
        :data:`SCALAR_SOLVE_MAX_ENTRIES` entries this is several times
        faster than paying ~15 numpy-call overheads per round.

        Updates ``_rates``/``_levels``/``_bneck`` in place and returns the
        (unsorted) list of slots whose rate moved.
        """
        # Order-preserving local compaction of links and slots, fused into
        # one pass that also builds the entry triples and the per-link
        # weight sums (accumulated in entry order, like the bincount).
        link_local: Dict[int, int] = {}
        links: List[int] = []  # local -> global link index
        slot_local: Dict[int, int] = {}
        slots: List[int] = []  # local -> global slot
        weights = self._weights
        wS: List[float] = []
        entries: List[Tuple[int, int, float]] = []
        link_weight: List[float] = []
        for g_l, g_s in zip(fl.tolist(), fs.tolist()):
            li = link_local.get(g_l)
            if li is None:
                li = link_local[g_l] = len(links)
                links.append(g_l)
                link_weight.append(0.0)
            si = slot_local.get(g_s)
            if si is None:
                si = slot_local[g_s] = len(slots)
                slots.append(g_s)
                wS.append(float(weights[g_s]))
            wgt = wS[si]
            entries.append((li, si, wgt))
            link_weight[li] += wgt
        nl = len(links)
        ns = len(slots)
        residual = [float(caps[g]) for g in links]
        levels = [0.0] * ns
        frozen = [False] * ns
        bneck = [-1] * ns
        while entries:
            best = math.inf
            shares = [math.inf] * nl
            for li in range(nl):
                lw = link_weight[li]
                if lw > 0.0:
                    sh = residual[li] / lw
                    shares[li] = sh
                    if sh < best:
                        best = sh
            if not math.isfinite(best):
                break
            if best < 0.0:
                best = 0.0
            thresh = best * (1 + 1e-9) + _EPS
            for li, si, _ in entries:
                if shares[li] <= thresh:
                    frozen[si] = True
                    levels[si] = best
                    bneck[si] = links[li]
            survivors = [e for e in entries if not frozen[e[1]]]
            if not survivors:
                break
            new_weight = [0.0] * nl
            for li, _, wgt in survivors:
                new_weight[li] += wgt
            for li in range(nl):
                r = residual[li] - (link_weight[li] - new_weight[li]) * best
                residual[li] = r if r > 0.0 else 0.0
            link_weight = new_weight
            entries = survivors
        rates = self._rates
        lv = self._levels
        bn = self._bneck
        changed: List[int] = []
        for si in range(ns):
            g = slots[si]
            r = wS[si] * levels[si]
            if rates[g] != r:
                rates[g] = r
                changed.append(g)
            lv[g] = levels[si]
            bn[g] = bneck[si]
        return changed

    def level_of(self, flow_id: str) -> float:
        """Water level of a registered flow (0.0 for unknown flows)."""
        slot = self._slot_of.get(flow_id)
        return 0.0 if slot is None else float(self._levels[slot])

    def rates_by_id(self) -> Dict[str, float]:
        """Flow id -> rate from the most recent solve (for tests/debug).

        Cached on ``solve_epoch``; treat the returned dict as read-only.
        """
        epoch, cached = self._rates_by_id_cache
        if epoch == self.solve_epoch and self._pending_delta == 0:
            return cached
        result = {
            flow.flow_id: float(self._rates[slot])
            for slot, flow in enumerate(self._flows)
            if flow is not None
        }
        if self._pending_delta == 0:
            self._rates_by_id_cache = (self.solve_epoch, result)
        return result


def bottleneck_rate(
    path: Iterable[str], capacities: Mapping[str, float]
) -> float:
    """Best-case rate of a flow that has each link of ``path`` to itself."""
    return min(capacities[l] for l in path)


def link_loads(
    flows: Sequence[Flow], rates: Optional[Mapping[str, float]] = None
) -> Dict[str, float]:
    """Aggregate allocated rate per link.

    With ``rates=None`` each flow's currently assigned ``flow.rate`` is
    used — this is the aggregation behind the assertion helpers.
    """
    loads: Dict[str, float] = {}
    for flow in flows:
        rate = flow.rate if rates is None else rates.get(flow.flow_id, 0.0)
        if rate <= 0:
            continue
        for link in flow.links:
            loads[link] = loads.get(link, 0.0) + rate
    return loads
