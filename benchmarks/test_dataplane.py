"""Data-plane benchmarks: host GB/s of the in-place collective planes.

Results are written to ``BENCH_dataplane.json`` at the repo root so CI
can archive the trend and ``benchmarks/compare_bench.py`` can guard it.
Each point runs one registered algorithm's ``run_data`` on 4 ranks into
preallocated output buffers, which is exactly what the service does for
every collective with receive buffers.  ``size`` is the largest
per-rank buffer: AllReduce moves ``size`` in and out; AllGather gathers
``size / 4`` inputs into ``size`` outputs; ReduceScatter, like the
``tenant_bulk`` perfbench workload, scatters ``size`` inputs into
``size / 4`` outputs.

``GBps`` counts the bytes the plane must read and write (every rank's
input plus output, the perfbench ``dataplane.bytes_per_op`` definition)
per second of host time, median over repetitions.  ``before_GBps`` is
the same point measured with the staging data plane it replaced (every
ring step copied its chunk, ``combine`` allocated, and the service then
copied each output into the receive buffer), on a 2-core x86-64 VM with
numpy 2.4; ``speedup`` is their ratio on the machine that wrote the
file.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.collectives.reference import reference_outputs
from repro.collectives.types import Collective, ReduceOp
from repro.core.algorithms import AlgorithmContext, get_algorithm

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_dataplane.json"
_RESULTS = {"dataplane": {}}

WORLD = 4
SIZES = {"64KB": 64 << 10, "16MB": 16 << 20}
CASES = (
    ("ring", Collective.ALL_REDUCE),
    ("ring", Collective.ALL_GATHER),
    ("ring", Collective.REDUCE_SCATTER),
    ("tree", Collective.ALL_REDUCE),
    ("halving_doubling", Collective.ALL_REDUCE),
)
#: Host time per point to aim for; each point runs at least 5 times.
TARGET_S = 1.0

#: GB/s of the staging data plane, measured with this file's method
#: (median of three runs).
BEFORE_GBPS = {
    "ring/all_reduce/64KB": 3.884,
    "ring/all_reduce/16MB": 1.684,
    "ring/all_gather/64KB": 6.504,
    "ring/all_gather/16MB": 1.862,
    "ring/reduce_scatter/64KB": 4.083,
    "ring/reduce_scatter/16MB": 1.31,
    "tree/all_reduce/64KB": 3.502,
    "tree/all_reduce/16MB": 0.838,
    "halving_doubling/all_reduce/64KB": 3.898,
    "halving_doubling/all_reduce/16MB": 1.384,
}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    yield
    OUT_PATH.write_text(json.dumps(_RESULTS, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {OUT_PATH}")


def _buffers(kind, size, rng):
    """Per-rank float32 inputs and outputs; ``size`` is the larger one."""
    elems = size // 4
    in_elems = elems // WORLD if kind is Collective.ALL_GATHER else elems
    out_elems = elems // WORLD if kind is Collective.REDUCE_SCATTER else elems
    inputs = [
        rng.integers(1, 5, size=in_elems).astype(np.float32)
        for _ in range(WORLD)
    ]
    outputs = [np.empty(out_elems, dtype=np.float32) for _ in range(WORLD)]
    return inputs, outputs


@pytest.mark.parametrize("size_name", list(SIZES))
@pytest.mark.parametrize("name, kind", CASES, ids=lambda v: str(v))
def test_dataplane_throughput(name, kind, size_name):
    rng = np.random.default_rng(0)
    inputs, outputs = _buffers(kind, SIZES[size_name], rng)
    ctx = AlgorithmContext(
        kind=kind,
        out_bytes=outputs[0].nbytes,
        world=WORLD,
        rank=0,
        root=0,
        ring_order=tuple(range(WORLD)),
        channels=1,
    )
    algorithm = get_algorithm(name)

    def once() -> float:
        started = time.perf_counter()
        algorithm.run_data(ctx, inputs, outputs, ReduceOp.SUM)
        return time.perf_counter() - started

    first = once()
    for got, want in zip(outputs, reference_outputs(kind, inputs)):
        np.testing.assert_array_equal(got, want)
    reps = max(5, min(2000, int(TARGET_S / max(first, 1e-6))))
    median_s = float(np.median([once() for _ in range(reps)]))
    moved = WORLD * (inputs[0].nbytes + outputs[0].nbytes)
    key = f"{name}/{kind.value}/{size_name}"
    gbps = moved / median_s / 1e9
    _RESULTS["dataplane"][key] = {
        "GBps": round(gbps, 3),
        "before_GBps": BEFORE_GBPS[key],
        "speedup": round(gbps / BEFORE_GBPS[key], 2),
        "bytes_per_op": moved,
        "median_us": round(median_s * 1e6, 1),
        "reps": reps,
    }
