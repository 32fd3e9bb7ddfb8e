"""One benchmark sample: a workload run once in this fresh interpreter.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/worker.py --workload tenant_small --seed 7 --trace 0

The package's module-global id counters feed ECMP hashing, so a sample's
simulated results depend on everything the process ran before it; one
interpreter per sample makes them depend on the seed alone.  The last
line of standard output is the sample as JSON.  Set-up time counts from
the start of this script, so it includes importing the package.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _counters(captured) -> dict:
    """Public counters summed over every object the workload built."""
    totals = {
        "flows": 0, "heap_pushes": 0, "stale_heap_pops": 0,
        "recomputations": 0, "coalesced": 0, "cache_hits": 0,
        "cache_misses": 0, "journal": 0, "sessions": 0, "reassignments": 0,
        "shim_retries": 0,
    }
    for deployment in captured.deployments:
        perf = deployment.sim.perf_counters()
        totals["flows"] += (
            perf["flows_completed"] + perf["flows_cancelled"] + perf["flows_failed"]
        )
        totals["heap_pushes"] += perf["heap_pushes"]
        totals["stale_heap_pops"] += perf["stale_heap_pops"]
        totals["recomputations"] += perf["rate_recomputations"]
        totals["coalesced"] += perf["solver_coalesced_solves"]
        totals["journal"] += len(deployment.journal)
        totals["sessions"] += len(deployment.reconfig.sessions)
    for comm in captured.comms:
        stats = comm.program_cache.stats()
        totals["cache_hits"] += stats["hits"]
        totals["cache_misses"] += stats["misses"]
    for manager in captured.managers:
        totals["reassignments"] += sum(
            len(r.reconfigured_comms) for r in manager.reports
        )
    totals["shim_retries"] = sum(c.retries_total for c in captured.clients)
    return totals


def _critical_path(captured) -> dict:
    """Median queue / serialization / contention split of the collectives
    the causal tracer still holds (its ring keeps the latest 512), from
    the last deployment built (the OR+FFA one in the Figure 11 replay)."""
    out = {"queue": [], "serialization": [], "contention": []}
    if captured.deployments:
        tracer = captured.deployments[-1].telemetry().causal
        for trace in tracer.closed_traces():
            report = tracer.critical_path(trace)
            if report is not None:
                out["queue"].append(report.queue_s)
                out["serialization"].append(report.serialization_s)
                out["contention"].append(report.contention_s)
    return {k: statistics.median(v) * 1e6 if v else 0.0 for k, v in out.items()}


def _gateway_counts(captured, queue_depth_max: int) -> dict:
    counts = {
        "offered": 0, "admitted": 0, "throttled": 0.0, "shed": 0.0,
        "retries": 0.0, "queue_depth_max": queue_depth_max, "admission_shed": 0,
    }
    for gateway in captured.gateways:
        stats = gateway.stats()
        # Data-path requests: admitted to the ledger or rejected at the door.
        counts["admitted"] += stats["requests"]
        counts["offered"] += stats["requests"] + stats["rejected"]
        metrics = gateway.deployment.telemetry().metrics
        for key, name in (
            ("throttled", "mccs_gateway_throttled_total"),
            ("retries", "mccs_gateway_retries_total"),
        ):
            metric = metrics.get(name)
            counts[key] += metric.total() if metric is not None else 0.0
        rejections = metrics.get("mccs_gateway_rejections_total")
        if rejections is not None:
            # Typed 503 sheds: every rejection reason but the 429 throttle.
            counts["shed"] += sum(
                value for labels, value in rejections.samples()
                if labels.get("reason") != "throttle"
            )
    for deployment in captured.deployments:
        if deployment.admission is not None:
            counts["admission_shed"] += deployment.admission.shed_total
    return counts


def layer_metrics(recorder, sample, captured, before, queue_max):
    """Every per-layer metric of one traced sample, by name, except
    ``tracing.overhead_s``, which needs the untraced sample too."""
    from spans import DRIVER, LAYER_NAMES

    calls, self_s, wall = recorder.split()
    by_layer_calls = {layer: 0 for layer in LAYER_NAMES}
    by_layer_self = {layer: 0.0 for layer in LAYER_NAMES}
    by_name = {}
    for idx, name in enumerate(recorder.names):
        layer = LAYER_NAMES[recorder.name_layer[idx]]
        by_layer_calls[layer] += int(calls[idx])
        by_layer_self[layer] += float(self_s[idx])
        by_name[name] = int(calls[idx])
    after = _counters(captured)
    delta = {k: after[k] - before[k] for k in after}
    ops = max(1, sample.attempted)
    path = _critical_path(captured)
    gw = _gateway_counts(captured, queue_max)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {}
    for layer in LAYER_NAMES:
        if layer == DRIVER:
            continue
        m[f"{layer}.calls"] = (by_layer_calls[layer], "count")
        m[f"{layer}.self_s"] = (by_layer_self[layer], "s")
    for layer in ("shim", "service", "proxy", "communicator", "transport",
                  "dataplane"):
        m[f"{layer}.self_us_per_op"] = (by_layer_self[layer] / ops * 1e6, "us")
    m["shim.retries"] = (delta["shim_retries"], "count")
    m["transport.flows_per_op"] = (delta["flows"] / ops, "count")
    lookups = delta["cache_hits"] + delta["cache_misses"]
    m["transport.program_cache_lookups"] = (lookups, "count")
    m["transport.program_cache_hit_ratio"] = (
        ratio(delta["cache_hits"], lookups), "ratio")
    m["dataplane.bytes_per_op"] = (sample.dataplane_bytes / ops, "B")
    m["dataplane.host_GBps"] = (
        ratio(sample.dataplane_bytes, by_layer_self["dataplane"]) / 1e9, "GB/s")
    engine_events = by_name.get("FlowSimulator.schedule", 0) + delta["flows"]
    m["engine.events"] = (engine_events, "count")
    m["engine.heap_pushes"] = (delta["heap_pushes"], "count")
    m["engine.stale_heap_pop_ratio"] = (
        ratio(delta["stale_heap_pops"], delta["heap_pushes"]), "ratio")
    solves = by_name.get("IncrementalFairnessSolver.solve", 0)
    m["fairness.solves"] = (solves, "count")
    m["fairness.us_per_solve"] = (
        ratio(by_layer_self["fairness"], solves) * 1e6, "us")
    m["fairness.recomputations"] = (delta["recomputations"], "count")
    m["fairness.coalesced_ratio"] = (
        ratio(delta["coalesced"], delta["coalesced"] + delta["recomputations"]),
        "ratio")
    m["topology.path_queries"] = (
        by_name.get("Topology.shortest_paths", 0)
        + by_name.get("Topology.equal_cost_paths", 0), "count")
    m["telemetry.share"] = (ratio(by_layer_self["telemetry"], wall), "ratio")
    records = by_name.get("StateJournal.append", 0)
    m["journal.records"] = (records, "count")
    m["journal.self_us_per_record"] = (
        ratio(by_layer_self["journal"], records) * 1e6, "us")
    m["controller.reassignments"] = (delta["reassignments"], "count")
    m["reconfig.sessions"] = (delta["sessions"], "count")
    m["sim.queue_us_p50"] = (path["queue"], "us")
    m["sim.serialization_us_p50"] = (path["serialization"], "us")
    m["sim.contention_us_p50"] = (path["contention"], "us")
    m["gateway.self_us_per_request"] = (
        ratio(by_layer_self["gateway"], gw["offered"]) * 1e6, "us")
    m["gateway.offered"] = (gw["offered"], "count")
    m["gateway.admitted_ratio"] = (ratio(gw["admitted"], gw["offered"]), "ratio")
    m["gateway.throttled"] = (gw["throttled"], "count")
    m["gateway.shed"] = (gw["shed"], "count")
    m["gateway.retries"] = (gw["retries"], "count")
    m["gateway.queue_depth_max"] = (gw["queue_depth_max"], "count")
    m["admission.shed"] = (gw["admission_shed"], "count")
    m["driver.self_s"] = (by_layer_self[DRIVER], "s")
    m["trace.wall_s"] = (wall, "s")
    m["trace.layer_sum_share"] = (
        ratio(sum(by_layer_self.values()), wall), "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"imported repro from {repro.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS, Timer

    recorder = None
    queue_max = [0]
    if args.trace:
        from spans import SpanRecorder, install

        def note_queue_depth(gateway) -> None:
            gauge = gateway.telemetry.metrics.get("mccs_gateway_queue_depth")
            depth = sum(value for _, value in gauge.samples())
            queue_max[0] = max(queue_max[0], depth)

        recorder = SpanRecorder()
        install(recorder, probes=[(
            "repro.service.gateway", "ServiceGateway", "_update_queue_gauges",
            note_queue_depth,
        )])
    timer = Timer(recorder)
    before = {}

    def after_setup(captured) -> None:
        before.update(_counters(captured))

    sample, captured = WORKLOADS[args.workload](
        args.seed, timer, STARTED, after_setup
    )
    sample.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = asdict(sample)
    if recorder is not None:
        out["layers"] = layer_metrics(
            recorder, sample, captured, before, queue_max[0]
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
