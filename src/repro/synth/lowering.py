"""Lowering: compile a validated IR program onto the flow data plane.

:class:`SynthAlgorithm` wraps a :class:`~repro.synth.ir.Program` in the
:class:`repro.core.algorithms.CollectiveAlgorithm` interface, which is
all the service needs to treat a synthesized schedule as a first-class
strategy:

* ``rank_transfers`` aggregates the program's sends per (peer, channel)
  into one flow launch each — the same one-aggregate-flow-per-edge shape
  the built-ins produce — so the communicator's ``FlowProgramCache`` and
  the netsim engine run synthesized schedules through exactly the same
  path as rings and trees;
* ``steps`` reports the program's pipeline step count to the fixed
  latency model;
* ``run_data`` byte-moves through the numpy interpreter
  (:func:`repro.synth.interp.run_program`), in place on the caller's
  outputs like the built-in planes, so consistency checks and the shared
  reference suite apply unmodified.

A synthesized program targets one (kind, world) point and is built
against a concrete rank->location mapping, so it deliberately ignores
the strategy's ring order (synth candidates always ship the identity
ring).  Collective kinds or world sizes the program does not cover fall
back to the ring algorithm, mirroring how the built-in tree and
halving-doubling algorithms degrade.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..collectives.types import Collective, ReduceOp
from ..core.algorithms import (
    AlgorithmContext,
    CollectiveAlgorithm,
    RankTransfer,
    RingAlgorithm,
    register_algorithm,
    registered_algorithms,
    unregister_algorithm,
)
from .ir import Program, Protocol
from .interp import run_program
from .validate import validate_program

#: Registry-name prefix marking synthesized algorithms.
SYNTH_PREFIX = "synth:"


class SynthAlgorithm(CollectiveAlgorithm):
    """A validated chunk-level program as a pluggable algorithm.

    Attributes:
        program: The underlying IR program.
        fingerprint: Topology fingerprint the program was synthesized
            for, or ``None``.  The planner only offers the algorithm as
            a candidate on an exactly matching fingerprint, so programs
            registered by one tenant (or one test) never leak into
            plans for other topologies.
        protocol: NCCL-style protocol annotation; consumed by the cost
            model (duck-typed, like ``fingerprint``).
    """

    def __init__(
        self,
        program: Program,
        *,
        fingerprint: Optional[str] = None,
        validate: bool = True,
    ) -> None:
        if validate:
            validate_program(program)
        self.program = program
        self.name = program.name
        self.fingerprint = fingerprint
        self.protocol: Protocol = program.protocol
        self._ring = RingAlgorithm()

    # -- applicability ----------------------------------------------------
    def supports(self, kind: Collective, world: int) -> bool:
        """Whether the program itself covers this (kind, world) point."""
        return kind is self.program.kind and world == self.program.world

    def _applies(self, ctx: AlgorithmContext) -> bool:
        if not self.supports(ctx.kind, ctx.world):
            return False
        rooted = ctx.kind in (Collective.BROADCAST, Collective.REDUCE)
        return not rooted or ctx.root == self.program.root

    # -- CollectiveAlgorithm ----------------------------------------------
    def rank_transfers(self, ctx: AlgorithmContext) -> List[RankTransfer]:
        if not self._applies(ctx):
            return self._ring.rank_transfers(ctx)
        by_edge = self.program.rank_transfer_bytes(ctx.rank, ctx.out_bytes)
        return [
            RankTransfer(dst_rank=dst, nbytes=nbytes, channel=channel)
            for (dst, channel), nbytes in sorted(by_edge.items())
            if nbytes > 0
        ]

    def steps(self, kind: Collective, world: int) -> int:
        if not self.supports(kind, world):
            return self._ring.steps(kind, world)
        return self.program.num_steps

    def run_data(
        self,
        ctx: AlgorithmContext,
        inputs: Sequence[np.ndarray],
        outputs: Sequence[np.ndarray],
        op: ReduceOp,
    ) -> None:
        if not self._applies(ctx):
            return self._ring.run_data(ctx, inputs, outputs, op)
        run_program(self.program, inputs, op, outputs)

    def __repr__(self) -> str:
        p = self.program
        return (
            f"SynthAlgorithm({p.name!r}, kind={p.kind}, world={p.world}, "
            f"chunks={p.num_chunks}, steps={p.num_steps}, "
            f"protocol={p.protocol.value}, fingerprint={self.fingerprint!r})"
        )


def register_program(
    program: Program,
    *,
    fingerprint: Optional[str] = None,
    replace: bool = False,
) -> SynthAlgorithm:
    """Validate, wrap and register ``program``; returns the algorithm."""
    algorithm = SynthAlgorithm(program, fingerprint=fingerprint)
    register_algorithm(algorithm, replace=replace)
    return algorithm


def unregister_program(name: str) -> None:
    """Remove a previously registered synthesized program."""
    unregister_algorithm(name)


def registered_synth_algorithms() -> List[str]:
    """Names of currently registered synthesized programs."""
    return [n for n in registered_algorithms() if n.startswith(SYNTH_PREFIX)]


@contextlib.contextmanager
def temporarily_registered(
    *programs: Program,
    fingerprint: Optional[str] = None,
) -> Iterator[List[SynthAlgorithm]]:
    """Register programs for the duration of a ``with`` block.

    Guarantees the global registry is restored on exit, which keeps
    test-suite and notebook experimentation from leaking synthesized
    candidates into unrelated planner runs.
    """
    registered: List[SynthAlgorithm] = []
    try:
        for program in programs:
            registered.append(
                register_program(program, fingerprint=fingerprint)
            )
        yield registered
    finally:
        for algorithm in registered:
            try:
                unregister_algorithm(algorithm.name)
            except Exception:
                pass
