"""Tree collective algorithms (NCCL-style double binary trees).

The paper's prototype "focuses on ports of NCCL's ring AllReduce and
AllGather kernels; however, it is straightforward to implement ... other
algorithms (e.g., tree algorithms)" (§5).  We implement that extension: a
binary-tree reduce+broadcast AllReduce and the double-binary-tree variant
NCCL uses at scale, with both a data plane and a traffic-matrix view, so
the MCCS proxy engine can switch algorithm families at reconfiguration
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .buffers import output_buffers
from .types import ReduceOp, validate_world


@dataclass(frozen=True)
class TreeSchedule:
    """A rooted tree over ranks: ``parent[r]`` is rank r's parent (root: -1)."""

    parent: Tuple[int, ...]

    def __post_init__(self) -> None:
        world = len(self.parent)
        validate_world(world)
        roots = [r for r, p in enumerate(self.parent) if p == -1]
        if len(roots) != 1:
            raise ValueError("tree must have exactly one root")
        # reject cycles / out-of-range parents
        for r, p in enumerate(self.parent):
            if p == r or (p != -1 and not 0 <= p < world):
                raise ValueError(f"invalid parent {p} for rank {r}")
        for r in range(world):
            seen = set()
            node = r
            while node != -1:
                if node in seen:
                    raise ValueError("parent pointers contain a cycle")
                seen.add(node)
                node = self.parent[node]

    @property
    def world(self) -> int:
        return len(self.parent)

    @property
    def root(self) -> int:
        return self.parent.index(-1)

    def children(self, rank: int) -> List[int]:
        return [r for r, p in enumerate(self.parent) if p == rank]

    def edges(self) -> List[Tuple[int, int]]:
        """Directed (child, parent) pairs."""
        return [(r, p) for r, p in enumerate(self.parent) if p != -1]

    def depth(self) -> int:
        def d(rank: int) -> int:
            p = self.parent[rank]
            return 0 if p == -1 else 1 + d(p)

        return max(d(r) for r in range(self.world))


def binary_tree(order: Sequence[int]) -> TreeSchedule:
    """Complete binary tree over ``order`` (order[0] is the root).

    Position p's parent is position (p-1)//2, the classic array layout.
    """
    order = list(order)
    world = len(order)
    validate_world(world)
    parent = [0] * world
    for pos, rank in enumerate(order):
        parent[rank] = -1 if pos == 0 else order[(pos - 1) // 2]
    return TreeSchedule(tuple(parent))


@lru_cache(maxsize=512)
def _double_binary_trees(order: Tuple[int, ...]) -> Tuple[TreeSchedule, TreeSchedule]:
    shifted = order[1:] + order[:1]
    return binary_tree(order), binary_tree(shifted)


def double_binary_trees(order: Sequence[int]) -> Tuple[TreeSchedule, TreeSchedule]:
    """Two complementary trees in the spirit of NCCL's double binary tree.

    The second tree is built over the rotated order, so interior nodes of
    one tree tend to be leaves of the other, balancing per-rank load when
    each tree carries half the data.  Results are cached per ring order —
    tree validation walks every root-to-leaf path, which is too costly to
    repeat on every collective launch.
    """
    return _double_binary_trees(tuple(order))


# ---------------------------------------------------------------------------
# traffic model
# ---------------------------------------------------------------------------
def tree_allreduce_traffic(
    tree: TreeSchedule, out_bytes: int
) -> Dict[Tuple[int, int], float]:
    """Bytes per directed (src, dst) rank pair for reduce+broadcast.

    Every tree edge carries the full vector once up (reduce) and once down
    (broadcast).
    """
    traffic: Dict[Tuple[int, int], float] = {}
    for child, parent in tree.edges():
        traffic[(child, parent)] = traffic.get((child, parent), 0.0) + out_bytes
        traffic[(parent, child)] = traffic.get((parent, child), 0.0) + out_bytes
    return traffic


def double_tree_allreduce_traffic(
    trees: Tuple[TreeSchedule, TreeSchedule], out_bytes: int
) -> Dict[Tuple[int, int], float]:
    """Each of the two trees carries half of the vector."""
    traffic: Dict[Tuple[int, int], float] = {}
    for tree in trees:
        for (pair, nbytes) in tree_allreduce_traffic(tree, out_bytes / 2).items():
            traffic[pair] = traffic.get(pair, 0.0) + nbytes
    return traffic


def tree_steps(tree: TreeSchedule) -> int:
    """Latency hops: up the tree then down."""
    return 2 * tree.depth()


# ---------------------------------------------------------------------------
# data plane
# ---------------------------------------------------------------------------
class TreeDataPlane:
    """Executes reduce+broadcast AllReduce on numpy buffers, in place.

    Each interior rank reduces its children's partials straight into its
    own output (a leaf's partial is its input, read where it is), and the
    broadcast copies the root's total down into every other output.  See
    :mod:`repro.collectives.buffers` for the output and aliasing rules.
    """

    def __init__(self, tree: TreeSchedule) -> None:
        self.tree = tree
        self.edge_bytes: Dict[Tuple[int, int], int] = {}

    def _send(self, src: int, dst: int, payload: np.ndarray) -> None:
        key = (src, dst)
        self.edge_bytes[key] = self.edge_bytes.get(key, 0) + payload.nbytes

    def all_reduce(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        if len(inputs) != self.tree.world:
            raise ValueError("one input per rank required")
        ins, outs, result = output_buffers(inputs, out, inputs[0].size, shaped=True)

        def reduce_up(rank: int) -> np.ndarray:
            acc = ins[rank]
            for child in self.tree.children(rank):
                child_val = reduce_up(child)
                self._send(child, rank, child_val)
                acc = op.combine(acc, child_val, out=outs[rank])
            return acc

        reduce_up(self.tree.root)

        def broadcast_down(rank: int) -> None:
            for child in self.tree.children(rank):
                self._send(rank, child, outs[rank])
                outs[child][:] = outs[rank]
                broadcast_down(child)

        broadcast_down(self.tree.root)
        return result


class DoubleTreeDataPlane:
    """AllReduce over two complementary trees, each carrying half."""

    def __init__(self, trees: Tuple[TreeSchedule, TreeSchedule]) -> None:
        self.trees = trees
        self.edge_bytes: Dict[Tuple[int, int], int] = {}

    def all_reduce(
        self,
        inputs: Sequence[np.ndarray],
        op: ReduceOp = ReduceOp.SUM,
        out: Optional[Sequence[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        world = self.trees[0].world
        if self.trees[1].world != world:
            raise ValueError("trees must cover the same world")
        if len(inputs) != world:
            raise ValueError("one input per rank required")
        ins, outs, result = output_buffers(inputs, out, inputs[0].size, shaped=True)
        half = inputs[0].size // 2
        for tree, sl in zip(self.trees, (slice(0, half), slice(half, None))):
            plane = TreeDataPlane(tree)
            plane.all_reduce([x[sl] for x in ins], op, [o[sl] for o in outs])
            for (pair, nbytes) in plane.edge_bytes.items():
                self.edge_bytes[pair] = self.edge_bytes.get(pair, 0) + nbytes
        return result
