"""Benchmark of the MCCS reproduction: host cost of the tenant path, the
Figure 11 cluster replay and the gateway fleet, with a traced layer split.

Run from the repository root::

    python3 perfbench/run.py --workload tenant_small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each sample is one fresh interpreter (``worker.py``), one at a time.  A
run measures about ``--seconds`` worth of samples (see :data:`SAMPLE_S`);
sample ``k`` uses a seed derived from ``--seed`` and ``k``, so a run
averages over several inputs.  Then the first sample is run again and
measured like the others: its digest of simulated outputs must repeat
exactly, and differ from the second sample's, which shows the seed
reaches the inputs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs each seed untraced and then traced, and reports the
per-layer metrics: medians over the traced samples, with
``tracing.overhead_s`` the traced minus the untraced timed region.  The
last line of standard output is one JSON object; the exit code is
non-zero when any output, digest or layer-sum check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tenant_small", "tenant_bulk", "cluster_replay", "gateway_fleet")
#: Wall seconds one untraced sample takes on a 2-core 2.1 GHz x86 VM,
#: process start included.  A run of ``--seconds`` measures
#: ``--seconds / SAMPLE_S`` samples, so its inputs depend on the seed and
#: the run length only, never on how fast the machine or the code is.
SAMPLE_S = {
    "tenant_small": 1.35,
    "tenant_bulk": 1.75,
    "cluster_replay": 3.0,
    "gateway_fleet": 1.8,
}
#: A traced pair (the seed untraced, then traced) costs about this many
#: untraced samples.
TRACED_PAIR_S = 2.5
MIN_SAMPLES = 3
MIN_TRACED = 2
#: Per-sample limit; a sample takes a few seconds.
SAMPLE_TIMEOUT_S = 30
#: Traced self times must add up to the traced wall time within this.
LAYER_SUM_TOLERANCE = 0.05


class BenchmarkError(Exception):
    """A sample failed to run or produced a wrong or unrepeatable result."""


def sample_seed(seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def run_sample(workload: str, seed: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} seed {seed}: timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(
            f"{workload} seed {seed}: worker exited {proc.returncode}\n"
            + proc.stderr[-2000:]
        )
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    if sample["errors"]:
        raise BenchmarkError(f"{workload} seed {seed}: {sample['errors'][:5]}")
    return sample


def tail(values: List[float]) -> Tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``; with fewer than eleven samples there is no
    such percentile and the maximum is reported."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 11 if n >= 11 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n


def end_to_end(samples: List[dict]) -> Tuple[Dict[str, Tuple[float, str]], List[str]]:
    """The end-to-end metrics of one run, plus notes for the report.

    Samples cut short by a known program defect count in ``ops_ok_frac``
    only; every timing comes from the samples that ran to the end.
    """
    attempted = sum(s["attempted"] for s in samples)
    ok = sum(s["ok"] for s in samples)
    defects = [s["defect"] for s in samples if s["defect"]]
    samples = [s for s in samples if not s["defect"]]
    op_host = [v for s in samples for v in s["op_host_us"]]
    sim_op = [v for s in samples for v in s["sim_op_us"]]
    # The tail is taken within each sample, whose operation count is
    # fixed, then the median over samples: pooling would make the
    # percentile depend on how many samples a run has.  Workloads with one
    # value per sample have too few values for a percentile with ten
    # beyond it, and report their upper quartile.
    if len(samples[0]["op_host_us"]) > 1:
        tails = [tail(s["op_host_us"]) for s in samples]
        tail_us = statistics.median(t[0] for t in tails)
        tail_note = (
            f"op_host_us_tail is p{statistics.median(t[1] for t in tails):.2f} "
            f"of {len(samples[0]['op_host_us'])} operations per sample, "
            f"median over {len(samples)} samples"
        )
    else:
        tail_us = statistics.quantiles(op_host, n=4)[2]
        tail_note = f"op_host_us_tail is the upper quartile of {len(op_host)} samples"

    def median(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    metrics = {
        "setup_s": (median("setup_s"), "s"),
        "run_host_s": (median("run_host_s"), "s"),
        "op_host_us_p50": (statistics.median(op_host), "us"),
        "op_host_us_tail": (tail_us, "us"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "ops_ok_frac": (ok / attempted, "ratio"),
        "sim_op_us_p50": (statistics.median(sim_op), "us"),
        "sim_speedup_or_ffa": (median("sim_speedup_or_ffa"), "x"),
        "sim_high_qos_attainment": (median("sim_high_qos_attainment"), "ratio"),
    }
    notes = [
        tail_note,
        f"{len(samples)} samples, {ok}/{attempted} operations ok",
    ] + [f"sample stopped by a program defect: {d}" for d in defects]
    return metrics, notes


def per_layer(traced: List[dict]) -> Dict[str, Tuple[float, str]]:
    names = traced[0]["layers"]
    return {
        name: (
            statistics.median(s["layers"][name]["value"] for s in traced),
            names[name]["unit"],
        )
        for name in names
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns the result object for the last line."""
    if trace:
        wanted = max(MIN_TRACED, round(seconds / (SAMPLE_S[workload] * TRACED_PAIR_S)))
    else:
        wanted = max(MIN_SAMPLES, round(seconds / SAMPLE_S[workload]))
    samples: List[dict] = []
    traced: List[dict] = []
    k = 0
    while len(traced if trace else [s for s in samples if not s["defect"]]) < wanted:
        if k >= 4 * wanted:
            raise BenchmarkError(f"{workload}: too few samples ran to the end")
        sub = sample_seed(seed, k)
        samples.append(run_sample(workload, sub, 0))
        k += 1
        if trace and not samples[-1]["defect"]:
            pair = run_sample(workload, sub, 1)
            if pair["digest"] != samples[-1]["digest"]:
                raise BenchmarkError(f"{workload}: tracing changed the simulation")
            layers = pair["layers"]
            share = layers["trace.layer_sum_share"]["value"]
            if abs(share - 1.0) > LAYER_SUM_TOLERANCE:
                raise BenchmarkError(f"{workload}: layer self times sum to {share:.3f} of wall")
            layers["tracing.overhead_s"] = {
                "value": layers["trace.wall_s"]["value"] - samples[-1]["run_host_s"],
                "unit": "s",
            }
            traced.append(pair)
    if samples[0]["digest"] == samples[1]["digest"]:
        raise BenchmarkError(f"{workload}: two seeds gave the same digest")
    if not trace:
        # The repeat is a full sample of the same input, so it is measured
        # too; in traced runs each traced sample repeats its untraced one.
        samples.append(run_sample(workload, sample_seed(seed, 0), 0))
        if samples[-1]["digest"] != samples[0]["digest"]:
            raise BenchmarkError(f"{workload}: the same seed gave a different digest")

    if trace:
        metrics, notes = per_layer(traced), [f"{len(traced)} traced samples"]
    else:
        metrics, notes = end_to_end(samples)
    notes.append(f"digest of the first sample: {samples[0]['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"{workload:15s} {name:36s} {value:14.6g} {unit}")
    for note in notes:
        print(f"{workload:15s} {note}")
    return {
        "correct": True,
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def declared_metrics(trace: int) -> Optional[List[str]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = declared_metrics(args.trace)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(
                workload, args.seed, args.seconds, args.trace
            )
            if declared is not None and set(results[workload]["metrics"]) != set(declared):
                missing = set(declared) ^ set(results[workload]["metrics"])
                raise BenchmarkError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    except BenchmarkError as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if len(results) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print(json.dumps({
            "correct": True,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": value
                for workload, r in results.items()
                for name, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
