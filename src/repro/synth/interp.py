"""Numpy interpreter for chunk-level collective programs.

Executes a validated :class:`~repro.synth.ir.Program` on real buffers,
following exactly the input/output conventions of the built-in data
planes (:class:`repro.collectives.ring.RingDataPlane` and friends), so a
synthesized algorithm's ``run_data`` is byte-for-byte comparable with
the built-ins:

* ``ALL_REDUCE`` — one vector per rank in, reduced vector out;
* ``ALL_GATHER`` — one block per rank in, concatenation out (block ``r``
  holds rank ``r``'s input);
* ``REDUCE_SCATTER`` — full vector per rank in, rank ``r`` gets reduced
  block ``r`` out;
* ``BROADCAST`` — every rank ends with the root's buffer;
* ``REDUCE`` — the root gets the reduction; non-root outputs are the
  inputs unchanged (the determinism convention of the ring plane).

Instructions run in dependency order (the validator's topological sort),
so the interpreter is also an executable semantics for the IR: if the
abstract validator accepts a program, this interpreter computes the
numpy reference answer.  Like the built-in planes it runs in place on
the caller's output buffers (``out=``), see
:mod:`repro.collectives.buffers`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..collectives.buffers import output_buffers
from ..collectives.types import Collective, ReduceOp
from ..netsim.errors import MalformedProgramError
from .ir import OpKind, Program, chunk_spans
from .validate import NodeId, toposort


def _output_size(program: Program, inputs: Sequence[np.ndarray]) -> int:
    """Checked per-rank output element count of ``program`` on ``inputs``."""
    world = program.world
    if len(inputs) != world:
        raise MalformedProgramError(
            f"{program.name}: expected {world} input buffers, "
            f"got {len(inputs)}"
        )
    first = inputs[0]
    for arr in inputs[1:]:
        if arr.shape != first.shape or arr.dtype != first.dtype:
            raise MalformedProgramError(
                f"{program.name}: rank buffers must match in shape and dtype"
            )
    if program.kind is Collective.ALL_GATHER:
        return first.size * world
    if program.kind is Collective.REDUCE_SCATTER:
        if first.size % world:
            raise MalformedProgramError(
                f"{program.name}: reduce-scatter input size {first.size} "
                f"not divisible by world {world}"
            )
        return first.size // world
    return first.size


def _working_vectors(
    program: Program,
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
) -> Tuple[List[np.ndarray], int]:
    """Per-rank flat working vectors and their element count.

    The program runs in the outputs themselves, seeded with the chunks
    each rank holds before it starts (see
    :func:`~repro.synth.ir.initial_state`): every chunk for AllReduce and
    Reduce, the own block for AllGather, the root's buffer for
    Broadcast.  ReduceScatter works on the full vector, of which only one
    block is output, so it works in copies of the inputs.
    """
    world = program.world
    kind = program.kind
    if kind is Collective.REDUCE_SCATTER:
        return [a.copy() for a in inputs], inputs[0].size
    if kind is Collective.ALL_GATHER:
        block = inputs[0].size
        for rank in range(world):
            outputs[rank][rank * block : (rank + 1) * block] = inputs[rank]
        return list(outputs), block * world
    seeded = [program.root] if kind is Collective.BROADCAST else range(world)
    for rank in seeded:
        outputs[rank][:] = inputs[rank]
    return list(outputs), inputs[0].size


def run_program(
    program: Program,
    inputs: Sequence[np.ndarray],
    op: ReduceOp = ReduceOp.SUM,
    out: Optional[Sequence[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Execute ``program`` on real buffers; returns per-rank outputs.

    The outputs are ``out`` when given (written in place, see
    :mod:`repro.collectives.buffers`), else freshly allocated.
    """
    size = _output_size(program, inputs)
    shaped = program.kind not in (Collective.ALL_GATHER, Collective.REDUCE_SCATTER)
    ins, outs, result = output_buffers(inputs, out, size, shaped=shaped)
    work, total = _working_vectors(program, ins, outs)
    # Buffers smaller than the chunk count leave trailing chunks empty
    # (zero-length slices), exactly like the built-in ring planes.
    spans = chunk_spans(program.kind, total, program.num_chunks, program.world)

    def view(rank: int, chunk: int) -> np.ndarray:
        lo, hi = spans[chunk]
        return work[rank][lo:hi]

    in_flight: Dict[NodeId, np.ndarray] = {}
    order = toposort(program)
    # Rebuild the send->recv matching the same way toposort did.
    sends: Dict[Tuple[int, int, int, int, int], NodeId] = {}
    for rank, instrs in enumerate(program.rank_programs):
        for idx, instr in enumerate(instrs):
            if instr.kind is OpKind.SEND:
                sends[
                    (rank, instr.peer, instr.chunk, instr.channel, instr.step)
                ] = (rank, idx)

    for node in order:
        rank, idx = node
        instr = program.rank_programs[rank][idx]
        if instr.kind is OpKind.SEND:
            in_flight[node] = view(rank, instr.chunk).copy()
        elif instr.kind is OpKind.COPY:
            src = view(rank, instr.src_chunk)
            dst = view(rank, instr.chunk)
            if src.size != dst.size:
                raise MalformedProgramError(
                    f"{program.name}: rank {rank} copies chunk "
                    f"{instr.src_chunk} ({src.size} elems) into chunk "
                    f"{instr.chunk} ({dst.size} elems)"
                )
            dst[:] = src
        else:
            send_node = sends[
                (instr.peer, rank, instr.chunk, instr.channel, instr.step)
            ]
            payload = in_flight[send_node]
            dst = view(rank, instr.chunk)
            if payload.size != dst.size:
                raise MalformedProgramError(
                    f"{program.name}: rank {rank} receives chunk "
                    f"{instr.chunk} with mismatched size"
                )
            if instr.kind is OpKind.RECV:
                dst[:] = payload
            else:  # RECV_REDUCE
                op.combine(dst, payload, out=dst)

    _finalize(program, ins, outs, work)
    return result


def _finalize(
    program: Program,
    inputs: Sequence[np.ndarray],
    outputs: Sequence[np.ndarray],
    work: List[np.ndarray],
) -> None:
    """Move what the working vectors do not already hold into the outputs."""
    world = program.world
    if program.kind is Collective.REDUCE_SCATTER:
        block = outputs[0].size
        for r in range(world):
            outputs[r][:] = work[r][r * block : (r + 1) * block]
    elif program.kind is Collective.REDUCE:
        for r in range(world):
            if r != program.root:
                outputs[r][:] = inputs[r]
