"""Common collective-communication vocabulary.

Defines the collective kinds and reduction operators supported by the
reproduction, mirroring the NCCL API surface the paper targets (§2.1 lists
broadcast, reduce, allgather, reducescatter and allreduce as the common
operators; the prototype ports NCCL's ring AllReduce and AllGather kernels
and notes other operations are straightforward).
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np


class Collective(enum.Enum):
    """Collective operation kinds."""

    ALL_REDUCE = "all_reduce"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    BROADCAST = "broadcast"
    REDUCE = "reduce"

    def __str__(self) -> str:
        return self.value


class ReduceOp(enum.Enum):
    """Reduction operators (ncclRedOp_t analogue)."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"

    def combine(
        self, a: np.ndarray, b: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Apply the operator elementwise: ``a op b``.

        With ``out`` the result is written there (it may be ``a`` or
        ``b`` itself) and ``out`` is returned; the values are the same
        bits either way.
        """
        return _NUMPY_OPS[self](a, b, out=out)


_NUMPY_OPS: dict = {
    ReduceOp.SUM: np.add,
    ReduceOp.PROD: np.multiply,
    ReduceOp.MAX: np.maximum,
    ReduceOp.MIN: np.minimum,
}


def reduce_many(
    op: ReduceOp, arrays: list, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Fold ``op`` over a list of equally-shaped arrays, left to right.

    The accumulator is ``out`` when given (it may be ``arrays[0]``, but
    must not overlap any later array), else a copy of ``arrays[0]``; the
    fold and its operand order are the same either way.
    """
    if not arrays:
        raise ValueError("need at least one array")
    if out is None:
        acc = arrays[0].copy()
    else:
        acc = out
        np.copyto(acc, arrays[0])
    for arr in arrays[1:]:
        op.combine(acc, arr, out=acc)
    return acc


def input_bytes(kind: Collective, out_bytes: int, world: int) -> int:
    """Per-rank input buffer size given the *output* buffer size.

    The paper measures data size "by output buffers" (§6.2), e.g. a 512 KB
    AllGather on 4 GPUs corresponds to a 128 KB input per GPU.
    """
    if world <= 0:
        raise ValueError("world must be positive")
    if kind is Collective.ALL_GATHER:
        return out_bytes // world
    if kind is Collective.REDUCE_SCATTER:
        return out_bytes * world
    return out_bytes


def validate_world(world: int) -> None:
    if world < 2:
        raise ValueError(f"collectives need at least 2 ranks, got {world}")
