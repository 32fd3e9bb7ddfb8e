"""Caller-owned output buffers for the in-place data planes.

Every data-plane method (:class:`~repro.collectives.ring.RingDataPlane`,
the tree and halving-doubling planes, and the synthesized-program
interpreter) writes its results straight into per-rank output arrays, the
way NCCL's kernels reduce and forward chunks into the user's
``recvbuff``: no staging payloads and no copy-out afterwards.  With
``out=None`` the method allocates the outputs first and then runs the
same code, so there is one code path.

Aliasing rule.  NCCL allows a rank's send and receive buffers to overlap
(``sendbuff == recvbuff`` for AllReduce, Broadcast and Reduce,
``sendbuff == recvbuff + rank*block`` for AllGather and
``recvbuff == sendbuff + rank*recvcount`` for ReduceScatter).  An
in-place schedule would read inputs it has already overwritten, so any
input that may share memory with any output is snapshot once, up front;
inputs that overlap nothing are read where they are.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def _flat_view(arr: np.ndarray) -> np.ndarray:
    """A 1-D view of ``arr`` that writes through to it."""
    if arr.ndim == 1:
        return arr
    flat = arr.view()
    try:
        flat.shape = (arr.size,)
    except AttributeError:
        raise ValueError(
            "output buffers must be flattenable without a copy"
        ) from None
    return flat


def output_buffers(
    inputs: Sequence[np.ndarray],
    out: Optional[Sequence[np.ndarray]],
    size: int,
    *,
    shaped: bool,
) -> Tuple[List[np.ndarray], List[np.ndarray], List[np.ndarray]]:
    """Flat inputs, flat outputs, and the list a data-plane call returns.

    ``size`` is the element count of each rank's output.  With ``out``
    given, the outputs must match the inputs' dtype and hold ``size``
    elements; inputs overlapping any output are snapshot (see the module
    docstring) and the call returns ``out`` itself.  With ``out=None``
    the outputs are allocated: shaped like each input when ``shaped``
    (the output-buffer convention of AllReduce, Broadcast and Reduce),
    flat otherwise.
    """
    dtype = inputs[0].dtype
    flat_inputs = [a if a.ndim == 1 else a.reshape(-1) for a in inputs]
    if out is None:
        result = [
            np.empty(a.shape if shaped else size, dtype=dtype) for a in inputs
        ]
        return flat_inputs, [_flat_view(r) for r in result], result
    if len(out) != len(inputs):
        raise ValueError("one output buffer per rank required")
    outputs = [_flat_view(o) for o in out]
    for o in outputs:
        if o.dtype != dtype or o.size != size:
            raise ValueError(
                f"output buffers must be {size} x {dtype}, "
                f"got {o.size} x {o.dtype}"
            )
    for r, a in enumerate(flat_inputs):
        for o in outputs:
            if np.may_share_memory(a, o):
                flat_inputs[r] = a.copy()
                break
    return flat_inputs, outputs, list(out)
