"""Recursive halving-doubling AllReduce.

The classic butterfly AllReduce (Rabenseifner): a recursive-halving
ReduceScatter followed by a recursive-doubling AllGather.  Each phase runs
``log2(n)`` exchange steps, so the whole collective takes ``2*log2(n)``
latency hops against the ring's ``2*(n-1)`` — the canonical small-message
winner — while each rank still moves the bandwidth-optimal
``2*S*(n-1)/n`` bytes in total.  The trade is *where* those bytes go: the
first halving step pairs ranks ``n/2`` apart, so half the vector crosses
the network bisection, which is exactly what an oversubscribed spine
punishes at large sizes.  That tension (latency-optimal vs
bisection-heavy) is what makes the algorithm a useful arm for the
:mod:`repro.autotune` planner.

Like :mod:`repro.collectives.tree`, both a numpy **data plane** and a
closed-form **traffic model** are provided and cross-checked by tests.
The schedule requires a power-of-two world; the registry-level algorithm
(:class:`repro.core.algorithms.HalvingDoublingAlgorithm`) falls back to
rings otherwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .buffers import output_buffers
from .chunking import chunk_bounds
from .types import ReduceOp, validate_world


def is_power_of_two(world: int) -> bool:
    return world >= 1 and (world & (world - 1)) == 0


def hd_steps(world: int) -> int:
    """Latency hops of halving-doubling AllReduce: 2*log2(n)."""
    validate_world(world)
    if not is_power_of_two(world):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {world}")
    return 2 * (world.bit_length() - 1)


def halving_doubling_traffic(
    order: Sequence[int], out_bytes: float
) -> Dict[Tuple[int, int], float]:
    """Bytes per directed (src, dst) rank pair for one AllReduce.

    At the step with partner mask ``m`` each rank exchanges ``S*m/n``
    bytes with the rank whose *position* differs by ``m``; every pair
    appears once in the halving phase and once in the doubling phase.
    """
    order = list(order)
    n = len(order)
    validate_world(n)
    if not is_power_of_two(n):
        raise ValueError(f"halving-doubling needs a power-of-two world, got {n}")
    traffic: Dict[Tuple[int, int], float] = {}
    mask = n >> 1
    while mask:
        nbytes = 2.0 * out_bytes * mask / n  # once per phase
        for v in range(n):
            pair = (order[v], order[v ^ mask])
            traffic[pair] = traffic.get(pair, 0.0) + nbytes
        mask >>= 1
    return traffic


class HalvingDoublingDataPlane:
    """Executes butterfly AllReduce on numpy buffers.

    ``order`` assigns ranks to butterfly *positions* (virtual ranks): the
    provider can therefore keep exchanges with small masks intra-host by
    ordering co-located ranks into the same low-bit groups, just as a
    locality ring keeps neighbouring ranks co-located.
    """

    def __init__(self, order: Sequence[int]) -> None:
        order = tuple(order)
        world = len(order)
        validate_world(world)
        if not is_power_of_two(world):
            raise ValueError(
                f"halving-doubling needs a power-of-two world, got {world}"
            )
        if sorted(order) != list(range(world)):
            raise ValueError(f"order must be a permutation of 0..{world - 1}")
        self.order = order
        self.world = world
        # bytes moved per directed (src_rank, dst_rank) pair
        self.edge_bytes: Dict[Tuple[int, int], int] = {}

    def _send(self, src_rank: int, dst_rank: int, payload: np.ndarray) -> None:
        key = (src_rank, dst_rank)
        self.edge_bytes[key] = self.edge_bytes.get(key, 0) + payload.nbytes

    def all_reduce(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Butterfly AllReduce, in place on the outputs (``out=``).

        Partners exchange disjoint halves, so each step reduces (then, in
        the doubling phase, copies) the sender's half straight into the
        receiver's output.  The first halving step reads both operands
        from the inputs; every later step works on partials already in
        the outputs.  See :mod:`repro.collectives.buffers` for the output
        and aliasing rules.
        """
        n = self.world
        if len(inputs) != n:
            raise ValueError("one input per rank required")
        first = inputs[0]
        for arr in inputs[1:]:
            if arr.shape != first.shape or arr.dtype != first.dtype:
                raise ValueError("all rank buffers must match in shape and dtype")
        order = self.order
        bounds = chunk_bounds(first.size, n)
        ins, outs, result = output_buffers(inputs, out, first.size, shaped=True)

        def eslice(block_lo: int, block_hi: int) -> slice:
            if block_lo >= block_hi:
                return slice(0, 0)
            return slice(bounds[block_lo][0], bounds[block_hi - 1][1])

        # block-range (in chunk units) currently being reduced by each
        # virtual rank; halving narrows it to one block, doubling re-grows
        # it to the full vector.
        ranges: List[Tuple[int, int]] = [(0, n)] * n

        # -- ReduceScatter: recursive halving --------------------------------
        held = ins
        mask = n >> 1
        while mask:
            next_ranges = list(ranges)
            for v in range(n):
                p = v ^ mask
                lo, hi = ranges[v]
                mid = (lo + hi) // 2
                if v & mask:
                    keep, send = (mid, hi), (lo, mid)
                else:
                    keep, send = (lo, mid), (mid, hi)
                sl = eslice(*send)
                payload = held[order[v]][sl]
                self._send(order[v], order[p], payload)
                op.combine(held[order[p]][sl], payload, out=outs[order[p]][sl])
                next_ranges[v] = keep
            ranges = next_ranges
            held = outs
            mask >>= 1

        # -- AllGather: recursive doubling -----------------------------------
        mask = 1
        while mask < n:
            next_ranges = list(ranges)
            for v in range(n):
                p = v ^ mask
                lo, hi = ranges[v]
                sl = eslice(lo, hi)
                payload = outs[order[v]][sl]
                self._send(order[v], order[p], payload)
                outs[order[p]][sl] = payload
                plo, phi = ranges[p]
                next_ranges[v] = (min(lo, plo), max(hi, phi))
            ranges = next_ranges
            mask <<= 1

        return result
