"""Ring collective algorithms.

Two complementary views of the same algorithm are provided, and tests
cross-check them against each other:

* the **data plane** (:class:`RingDataPlane`) executes the classic chunked
  ring schedules on real numpy buffers, moving data only between ring
  neighbours, and records how many bytes crossed each directed ring edge;
* the **traffic model** (:func:`edge_traffic`) predicts those per-edge byte
  counts in closed form; the fluid simulator turns them into flows.

The MCCS prototype ports NCCL's ring AllReduce and AllGather kernels (§5);
we implement those plus ReduceScatter, Broadcast and Reduce, which the
paper notes are straightforward extensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .buffers import output_buffers
from .chunking import chunk_bounds
from .types import Collective, ReduceOp, validate_world


@dataclass(frozen=True)
class RingSchedule:
    """A ring over ``world`` ranks.

    ``order[i]`` is the rank sitting at ring position ``i``; data moves
    from position ``i`` to position ``(i+1) % world``.
    """

    order: Tuple[int, ...]

    def __post_init__(self) -> None:
        world = len(self.order)
        validate_world(world)
        if sorted(self.order) != list(range(world)):
            raise ValueError(f"order must be a permutation of 0..{world - 1}")
        # rank -> position lookup; not a dataclass field so eq/hash/repr
        # stay defined by ``order`` alone.
        object.__setattr__(
            self, "_pos", {rank: i for i, rank in enumerate(self.order)}
        )

    @property
    def world(self) -> int:
        return len(self.order)

    def position_of(self, rank: int) -> int:
        try:
            return self._pos[rank]
        except KeyError:
            raise ValueError(f"rank {rank} is not in the ring") from None

    def edges(self) -> List[Tuple[int, int]]:
        """Directed (src_rank, dst_rank) pairs, one per ring edge."""
        n = self.world
        return [
            (self.order[i], self.order[(i + 1) % n]) for i in range(n)
        ]

    def reversed(self) -> "RingSchedule":
        """The same ring traversed in the opposite direction.

        This is the reconfiguration applied in the Figure 7 showcase:
        "MCCS enables the application to recover its collective
        performance by transparently reversing the ring".
        """
        return RingSchedule(tuple(reversed(self.order)))


def identity_ring(world: int) -> RingSchedule:
    """Ring in rank order — what NCCL builds from user-specified ranks."""
    return RingSchedule(tuple(range(world)))


# ---------------------------------------------------------------------------
# traffic model
# ---------------------------------------------------------------------------
def steps_for(kind: Collective, world: int) -> int:
    """Number of pipeline steps (latency hops) the ring algorithm takes."""
    validate_world(world)
    if kind is Collective.ALL_REDUCE:
        return 2 * (world - 1)
    return world - 1


def edge_traffic(
    kind: Collective,
    out_bytes: int,
    world: int,
    root_position: int = 0,
) -> List[float]:
    """Bytes carried by each directed ring edge.

    Index ``i`` is the edge from ring position ``i`` to ``i+1``.  Sizes
    follow the output-buffer convention (see
    :func:`repro.collectives.types.input_bytes`).
    """
    validate_world(world)
    n = world
    if kind is Collective.ALL_REDUCE:
        per_edge = 2.0 * (n - 1) / n * out_bytes
        return [per_edge] * n
    if kind is Collective.ALL_GATHER:
        per_edge = (n - 1) / n * out_bytes
        return [per_edge] * n
    if kind is Collective.REDUCE_SCATTER:
        # out_bytes is the per-rank output; total vector is n*out_bytes and
        # each edge carries (n-1)/n of it.
        per_edge = float((n - 1) * out_bytes)
        return [per_edge] * n
    if kind in (Collective.BROADCAST, Collective.REDUCE):
        # Pipelined chain of n-1 hops; the edge closing the ring is unused.
        traffic = [float(out_bytes)] * n
        if kind is Collective.BROADCAST:
            unused = (root_position - 1) % n  # edge into the root
        else:
            unused = root_position  # edge out of the root
        traffic[unused] = 0.0
        return traffic
    raise ValueError(f"unsupported collective {kind}")


# ---------------------------------------------------------------------------
# data plane
# ---------------------------------------------------------------------------
class RingDataPlane:
    """Chunk-level execution of ring collectives on numpy buffers.

    The executor is deliberately written as a sequence of neighbour-only
    transfers (no global shortcuts) so that the byte counts it records are
    a genuine check of :func:`edge_traffic`.

    Every collective runs in place on the per-rank output buffers
    (``out=``; allocated when ``None``): a transfer reduces or copies the
    sender's chunk straight into the receiver's output chunk.  Within one
    ring step no rank's receive chunk is any rank's send chunk, so no
    transfer needs a staging copy.  See :mod:`repro.collectives.buffers`
    for the output and aliasing rules.
    """

    def __init__(self, schedule: RingSchedule) -> None:
        self.schedule = schedule
        self.world = schedule.world
        # bytes moved over edge position i -> i+1
        self.edge_bytes: List[int] = [0] * self.world

    # -- helpers ----------------------------------------------------------
    def _send(self, src_pos: int, payload: np.ndarray) -> int:
        """Account for a transfer from ``src_pos`` to the next position."""
        self.edge_bytes[src_pos] += payload.nbytes
        return (src_pos + 1) % self.world

    def _check_uniform(self, arrays: Sequence[np.ndarray]) -> None:
        if len(arrays) != self.world:
            raise ValueError("one input per rank required")
        first = arrays[0]
        for arr in arrays[1:]:
            if arr.shape != first.shape or arr.dtype != first.dtype:
                raise ValueError("all rank buffers must match in shape and dtype")

    # -- collectives -------------------------------------------------------
    def all_reduce(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Ring AllReduce: reduce-scatter phase then allgather phase."""
        self._check_uniform(inputs)
        n = self.world
        order = self.schedule.order
        size = inputs[0].size
        ins, outs, result = output_buffers(inputs, out, size, shaped=True)
        bounds = chunk_bounds(size, n)
        # Reduce-scatter: after step s = n-2, position p holds the fully
        # reduced ring-chunk (p+1) mod n.  The chunk a position receives
        # at step s is still its raw input, and the chunk it sends is the
        # partial it received at step s-1 (its raw input at step 0).
        for s in range(n - 1):
            held = ins if s == 0 else outs
            for p in range(n):
                lo, hi = bounds[(p - s) % n]
                payload = held[order[p]][lo:hi]
                dst = order[self._send(p, payload)]
                op.combine(ins[dst][lo:hi], payload, out=outs[dst][lo:hi])
        # AllGather: position p starts by sending its reduced chunk (p+1).
        for s in range(n - 1):
            for p in range(n):
                lo, hi = bounds[(p + 1 - s) % n]
                payload = outs[order[p]][lo:hi]
                outs[order[self._send(p, payload)]][lo:hi] = payload
        return result

    def all_gather(
        self,
        inputs: Sequence[np.ndarray],
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Ring AllGather; output block ``r`` holds rank ``r``'s input."""
        self._check_uniform(inputs)
        n = self.world
        order = self.schedule.order
        block = inputs[0].size
        ins, outs, result = output_buffers(inputs, out, block * n, shaped=False)
        for r in range(n):
            outs[r][r * block : (r + 1) * block] = ins[r]
        # At step s, position p forwards the block originated by the rank
        # at position (p - s) mod n.
        for s in range(n - 1):
            for p in range(n):
                owner = order[(p - s) % n]
                lo = owner * block
                payload = outs[order[p]][lo : lo + block]
                outs[order[self._send(p, payload)]][lo : lo + block] = payload
        return result

    def reduce_scatter(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Ring ReduceScatter; rank ``r`` outputs reduced block ``r``.

        Inputs must have size divisible by ``world``; block ``r`` of each
        input contributes to rank ``r``'s output.
        """
        self._check_uniform(inputs)
        n = self.world
        order = self.schedule.order
        if inputs[0].size % n:
            raise ValueError("input size must be divisible by world")
        block = inputs[0].size // n
        ins, outs, result = output_buffers(inputs, out, block, shaped=False)
        # Ring-chunk c holds the user block of the rank at position c, so
        # the final chunk each position keeps is its own rank's.  Shifted
        # schedule: position p sends ring-chunk (p - s - 1); the chunk's
        # partial starts at position c+1 and reaches position c after n-1
        # steps.  Only one partial of each chunk is live at a time, so it
        # accumulates in its final owner's output from the first hop on.
        for s in range(n - 1):
            for p in range(n):
                owner = order[(p - s - 1) % n]
                lo = owner * block
                payload = ins[order[p]][lo : lo + block] if s == 0 else outs[owner]
                dst = order[self._send(p, payload)]
                op.combine(ins[dst][lo : lo + block], payload, out=outs[owner])
        return result

    def broadcast(
        self,
        inputs: Sequence[np.ndarray],
        root: int,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Pipelined ring broadcast from ``root``."""
        self._check_uniform(inputs)
        n = self.world
        order = self.schedule.order
        ins, outs, result = output_buffers(inputs, out, inputs[0].size, shaped=True)
        p = self.schedule.position_of(root)
        outs[root][:] = ins[root]
        for _ in range(n - 1):
            payload = outs[order[p]]
            p = self._send(p, payload)
            outs[order[p]][:] = payload
        return result

    def reduce(
        self,
        inputs: Sequence[np.ndarray],
        root: int,
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Pipelined ring reduce toward ``root``.

        Non-root outputs are their inputs unchanged (NCCL leaves recvbuff
        of non-roots unspecified; we keep the input for determinism).
        """
        self._check_uniform(inputs)
        n = self.world
        order = self.schedule.order
        ins, outs, result = output_buffers(inputs, out, inputs[0].size, shaped=True)
        root_pos = self.schedule.position_of(root)
        # Accumulate around the ring ending at root: start at the position
        # after root, walk forward reducing as we go.  The single running
        # partial lives in the root's output.
        p = (root_pos + 1) % n
        acc = ins[order[p]]
        for _ in range(n - 1):
            p = self._send(p, acc)
            acc = op.combine(ins[order[p]], acc, out=outs[root])
        for r in range(n):
            if r != root:
                outs[r][:] = ins[r]
        return result

    def run(
        self,
        kind: Collective,
        inputs: Sequence[np.ndarray],
        *,
        op: ReduceOp = ReduceOp.SUM,
        root: int = 0,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Dispatch by collective kind; outputs land in ``out`` if given."""
        if kind is Collective.ALL_REDUCE:
            return self.all_reduce(inputs, op, out)
        if kind is Collective.ALL_GATHER:
            return self.all_gather(inputs, out)
        if kind is Collective.REDUCE_SCATTER:
            return self.reduce_scatter(inputs, op, out)
        if kind is Collective.BROADCAST:
            return self.broadcast(inputs, root, out)
        if kind is Collective.REDUCE:
            return self.reduce(inputs, root, op, out)
        raise ValueError(f"unsupported collective {kind}")
