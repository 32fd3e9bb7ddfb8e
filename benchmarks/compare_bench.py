"""Guard committed BENCH_*.json metrics against regressions.

Compares freshly generated bench files against their committed baselines
(``git show HEAD:<file>`` by default) and fails if any higher-is-better
metric shared by both files regressed more than the tolerance.  Used two
ways:

* as the CI compare step, after a bench job rewrites the files::

      python benchmarks/compare_bench.py

* imported by ``benchmarks/test_netsim_core.py`` and
  ``benchmarks/test_synth.py``, which run the same check in-process
  against the results they just measured.

Guarded files:

* ``BENCH_netsim.json`` — engine throughput (``events_per_sec``) in the
  ``event_loop`` and ``scale_curve`` sections;
* ``BENCH_synth.json`` — synthesizer search throughput
  (``programs_per_sec``) and the measured synthesized-vs-builtin
  ``speedup`` on the WAN fabric;
* ``BENCH_gateway.json`` — service-gateway request throughput and the
  fleet-scenario wall-clock rate (``requests_per_sec`` in both the
  ``gateway`` and ``fleet`` sections);
* ``BENCH_dataplane.json`` — host GB/s of the in-place collective data
  planes (``GBps`` in the ``dataplane`` section).

Only keys present in *both* files are compared, so adding or renaming
benchmark points never trips the guard; a point that got slower does.
Fresh files that do not exist yet are skipped (each CI bench job only
regenerates its own file).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = REPO_ROOT / "BENCH_netsim.json"
SYNTH_PATH = REPO_ROOT / "BENCH_synth.json"
GATEWAY_PATH = REPO_ROOT / "BENCH_gateway.json"
DATAPLANE_PATH = REPO_ROOT / "BENCH_dataplane.json"

#: Sections of BENCH_netsim.json holding throughput points.
THROUGHPUT_SECTIONS = ("event_loop", "scale_curve")

#: Allowed fractional slowdown before the compare step fails.  The bench
#: runners are noisy shared machines; 30% is the contract from the scale
#: work (genuine regressions from algorithmic changes are much larger).
TOLERANCE = 0.30


@dataclass(frozen=True)
class Guard:
    """One (file, sections, metric) triple to hold the line on."""

    path: Path
    sections: Tuple[str, ...]
    metric: str


GUARDS = (
    Guard(BENCH_PATH, THROUGHPUT_SECTIONS, "events_per_sec"),
    Guard(SYNTH_PATH, ("synthesizer",), "programs_per_sec"),
    Guard(SYNTH_PATH, ("speedup",), "speedup"),
    Guard(GATEWAY_PATH, ("gateway", "fleet"), "requests_per_sec"),
    Guard(DATAPLANE_PATH, ("dataplane",), "GBps"),
)


def compare_throughput(
    baseline: Dict,
    fresh: Dict,
    tolerance: float = TOLERANCE,
    *,
    sections: Sequence[str] = THROUGHPUT_SECTIONS,
    metric: str = "events_per_sec",
) -> List[str]:
    """Return a list of human-readable regression descriptions (empty = ok)."""
    failures = []
    for section in sections:
        base_section = baseline.get(section) or {}
        fresh_section = fresh.get(section) or {}
        for key in sorted(set(base_section) & set(fresh_section)):
            old = (base_section[key] or {}).get(metric)
            new = (fresh_section[key] or {}).get(metric)
            if not old or not new:
                continue
            if new < old * (1.0 - tolerance):
                failures.append(
                    f"{section}[{key}]: {metric} {new:,.2f} vs committed "
                    f"{old:,.2f} ({100.0 * (new / old - 1.0):+.0f}%, "
                    f"tolerance -{100.0 * tolerance:.0f}%)"
                )
    return failures


def committed_baseline(path: Path = BENCH_PATH) -> Dict:
    """The committed version of a bench file (empty dict if unborn)."""
    rel = path.relative_to(REPO_ROOT)
    proc = subprocess.run(
        ["git", "show", f"HEAD:{rel.as_posix()}"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        return {}
    return json.loads(proc.stdout)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=TOLERANCE,
        help="allowed fractional metric slowdown",
    )
    args = parser.parse_args(argv)
    failures: List[str] = []
    compared = 0
    for guard in GUARDS:
        if not guard.path.exists():
            continue  # this bench job did not regenerate the file
        baseline = committed_baseline(guard.path)
        fresh = json.loads(guard.path.read_text())
        failures.extend(
            compare_throughput(
                baseline,
                fresh,
                args.tolerance,
                sections=guard.sections,
                metric=guard.metric,
            )
        )
        compared += sum(
            len(set(baseline.get(s) or {}) & set(fresh.get(s) or {}))
            for s in guard.sections
        )
    if failures:
        print("metric regressions vs committed bench baselines:")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"no metric regressions ({compared} points compared)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
