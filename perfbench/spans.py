"""Span recorder for the traced run, installed from outside the package.

The traced run measures where host time goes without any tracing code
inside ``src/``: :func:`install` replaces each listed method (or
module-level function) with a wrapper that records one span per call —
its name, start, end and parent — into flat arrays kept in memory.  A
layer's self time is the summed duration of its spans minus the part of
each span that its child spans cover, so the self times of all layers
plus the benchmark's own root spans add up to the traced wall time.

Wrappers replace class attributes, so they must be installed before any
object caches a bound method (``CommandQueue.bind(self.handle)`` does):
the worker installs them right after import, before building anything.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: The benchmark's own root spans (one per timed region).
DRIVER = "driver"

#: layer -> [(module, class or None for module functions, [names])].
#: Each layer is named after the repository modules it covers.  The
#: listed names are the calls into a layer from other layers, including
#: the private methods that the event loop and the closures of other
#: layers call back into; everything a wrapped call runs that no deeper
#: wrapper claims is that layer's self time.
LAYERS: Dict[str, List[Tuple[str, Optional[str], Sequence[str]]]] = {
    # repro.core.shim — the tenant-side library.
    "shim": [
        ("repro.core.shim", "MccsClient", (
            "alloc", "free", "create_communicator", "adopt_communicator",
            "adopt_buffer", "destroy_communicator", "create_stream",
            "all_reduce", "all_gather", "reduce_scatter", "broadcast",
            "reduce", "send_recv", "_pump",
        )),
    ],
    # repro.core.service, repro.core.deployment, repro.core.memory,
    # repro.core.messages — the per-host MCCS service and its frontend.
    "service": [
        ("repro.core.messages", "CommandQueue", ("call",)),
        ("repro.core.service", "FrontendEngine", ("handle",)),
        ("repro.core.service", "MccsService", (
            "allocate", "free", "crash", "restart", "upgrade",
        )),
        ("repro.core.deployment", "MccsDeployment", (
            "handle_create_communicator", "create_communicator",
            "handle_destroy_communicator", "handle_collective", "handle_p2p",
            "reconfigure", "set_traffic_schedule", "crash_service",
            "restart_service", "connect", "configure_admission",
            "enable_service_supervision",
        )),
    ],
    # repro.core.proxy — per-GPU proxy engines.
    "proxy": [
        ("repro.core.proxy", "ProxyEngine", (
            "request_launch", "relaunch", "receive_reconfig",
            "barrier_resolved", "abort_reconfig", "register", "unregister",
            "fail", "heartbeat",
        )),
    ],
    # repro.core.communicator — collective instances and communicators.
    "communicator": [
        ("repro.core.communicator", "CollectiveInstance", (
            "rank_launch", "_inject_rank", "_flow_done", "_flow_failed",
            "_finish", "rank_failed", "abort", "reset_for_retry",
        )),
        ("repro.core.communicator", "ServiceCommunicator", (
            "commit_strategy", "apply_membership", "on_instance_finished",
            "on_instance_failure", "abort",
        )),
    ],
    # repro.transport, repro.core.transport, repro.collectives.programs and
    # the flow-program compile in repro.core.algorithms: turning a launch
    # into flows on connections.
    "transport": [
        ("repro.transport.launcher", "FlowTransport", (
            "launch_ring", "launch_double_tree",
        )),
        ("repro.transport.connections", "ConnectionTable", (
            "establish", "establish_edge", "teardown",
        )),
        ("repro.core.communicator", "VersionedDataPath", (
            "table_for", "retire_stale", "retire",
        )),
        ("repro.core.transport", "TrafficGateManager", (
            "register", "set_schedule",
        )),
        ("repro.collectives.programs", "FlowProgramCache", ("get",)),
        ("repro.core.algorithms", "RingAlgorithm", ("rank_transfers",)),
        ("repro.core.algorithms", "DoubleTreeAlgorithm", ("rank_transfers",)),
        ("repro.core.algorithms", "HalvingDoublingAlgorithm", (
            "rank_transfers",
        )),
    ],
    # repro.collectives data planes and the synthesized-program interpreter
    # (repro.synth.interp via SynthAlgorithm.run_data): the bytes.
    "dataplane": [
        ("repro.collectives.ring", "RingDataPlane", (
            "all_reduce", "all_gather", "reduce_scatter", "broadcast",
            "reduce", "run",
        )),
        ("repro.collectives.tree", "TreeDataPlane", ("all_reduce",)),
        ("repro.collectives.tree", "DoubleTreeDataPlane", ("all_reduce",)),
        ("repro.collectives.halving_doubling", "HalvingDoublingDataPlane", (
            "all_reduce",
        )),
        ("repro.synth.lowering", "SynthAlgorithm", ("run_data",)),
    ],
    # repro.netsim.engine — the event loop, plus every callback it fires
    # that no other layer claims.
    "engine": [
        ("repro.netsim.engine", "FlowSimulator", (
            "run", "add_flow", "add_flows", "cancel_flow", "fail_flow",
            "gate_flow", "set_link_capacity", "set_link_bandwidth",
            "fail_link", "restore_link", "schedule",
        )),
    ],
    # repro.netsim.fairness — the max-min rate solver.
    "fairness": [
        ("repro.netsim.fairness", "IncrementalFairnessSolver", (
            "solve", "add_flow", "remove_flow", "set_active", "set_weight",
            "set_capacity", "add_links",
        )),
    ],
    # repro.netsim.topology and repro.netsim.routing — path enumeration
    # and route selection.
    "topology": [
        ("repro.netsim.topology", "Topology", (
            "shortest_paths", "equal_cost_paths", "validate_path",
            "adopt_path_cache",
        )),
        ("repro.netsim.routing", "EcmpSelector", ("select",)),
        ("repro.netsim.routing", "RouteIdSelector", ("select",)),
        ("repro.netsim.routing", "RandomSelector", ("select",)),
        ("repro.netsim.routing", "ClosEcmpSelector", ("select",)),
    ],
    # repro.telemetry and repro.core.tracing — every observer the run
    # pays for: causal tracer, network sampler, metrics, spans, events,
    # SLO tracking and the per-communicator trace records.
    "telemetry": [
        ("repro.telemetry.causal", "CausalTracer", (
            "mint_context", "begin", "new_attempt", "annotate",
            "annotate_comm", "close", "on_flow_added", "on_flow_completed",
            "on_flow_cancelled", "on_flow_failed",
        )),
        ("repro.telemetry.causal", "_BoundRecorder", ("on_rate_change",)),
        ("repro.telemetry.causal", "FlightRecorder", ("trigger",)),
        ("repro.telemetry.sampler", "NetworkTelemetry", (
            "on_flow_added", "on_flow_completed", "on_flow_cancelled",
            "on_flow_failed", "on_flow_gated", "sample_now",
        )),
        ("repro.telemetry.metrics", "MetricsRegistry", (
            "counter", "gauge", "histogram",
        )),
        ("repro.telemetry.metrics", "Counter", ("inc",)),
        ("repro.telemetry.metrics", "Gauge", ("set", "inc", "dec")),
        ("repro.telemetry.metrics", "Histogram", ("observe",)),
        ("repro.telemetry.spans", "SpanRecorder", ("begin",)),
        ("repro.telemetry.spans", "Span", ("finish", "mark")),
        ("repro.telemetry.events", "EventLog", ("log",)),
        ("repro.telemetry.slo", "SloTracker", (
            "record_completion", "record_deadline_miss", "record_retry",
            "record_shed", "record_abort",
        )),
        ("repro.core.tracing", "CommTrace", ("record_issue",)),
    ],
    # repro.core.journal — the write-ahead control-plane journal and its
    # replay check.
    "journal": [
        ("repro.core.journal", "StateJournal", ("append", "compact")),
        ("repro.core.deployment", "MccsDeployment", (
            "verify_journal", "control_state",
        )),
    ],
    # repro.core.controller, repro.core.policies, repro.core.reconfig —
    # the provider's policies and the reconfiguration barrier.
    "controller": [
        ("repro.core.controller", "CentralManager", (
            "initial_strategy", "admit", "manage_admissions",
            "apply_ring_policy", "apply_flow_policy", "prioritize_with_ts",
            "adapt_to_background",
        )),
        ("repro.core.reconfig", "ReconfigManager", ("reconfigure",)),
        ("repro.core.reconfig", "ReconfigSession", (
            "deliver", "contribute", "mark_applied",
        )),
    ],
    # repro.service — the tenant-facing gateway, its limits, registry and
    # request transport.
    "gateway": [
        ("repro.service.gateway", "ServiceGateway", (
            "handle", "register_tenant", "revoke_tenant", "crash", "restart",
            "_pump", "_attempt", "_completed", "_retry_or_expire",
        )),
        ("repro.service.limits", "TokenBucket", ("try_take",)),
        ("repro.service.limits", "CircuitBreaker", (
            "allow", "record_success", "record_failure",
        )),
        ("repro.service.limits", "BrownoutController", ("update",)),
        ("repro.service.registry", "TenantRegistry", (
            "register", "authenticate", "restore", "snapshot",
        )),
        ("repro.service.transport", "InProcessTransport", ("submit",)),
        ("repro.service.transport", "PendingCall", ("_deliver",)),
    ],
    # repro.core.admission — per-tenant in-flight quotas.
    "admission": [
        ("repro.core.admission", "AdmissionController", ("admit",)),
    ],
    # repro.cluster — simulated GPUs, streams, events and IPC handles.
    "cluster": [
        ("repro.cluster.gpu", "Stream", (
            "enqueue", "record_event", "wait_event", "add_callback",
            "synchronize",
        )),
        ("repro.cluster.gpu", "AsyncOp", ("start", "complete")),
        ("repro.cluster.gpu", "ComputeOp", ("start",)),
        ("repro.cluster.gpu", "Event", ("record",)),
    ],
    # repro.workloads, the load generator of repro.service and the
    # experiment entry points the benchmark calls into.
    "workload": [
        ("repro.workloads.generator", "TrafficGenerator", (
            "start", "_advance", "_collective_done", "_finish",
        )),
        ("repro.workloads.generator", "MccsIssuer", ("issue",)),
        ("repro.service.loadgen", "FleetLoadGenerator", (
            "provision", "start", "_fire", "storm", "calm",
        )),
        ("repro.experiments.fig11_simulation", None, (
            "run_fig11", "precompute_placements", "_run_solution",
        )),
        ("repro.experiments.fig_fleet", None, ("run_fleet",)),
    ],
}

#: Layers whose names are reported, in report order (``driver`` last).
LAYER_NAMES: Tuple[str, ...] = tuple(LAYERS) + (DRIVER,)


class SpanRecorder:
    """Flat in-memory span store: name, start, end and parent per span."""

    def __init__(self) -> None:
        #: Span names by id, and each name's layer as an index into
        #: :data:`LAYER_NAMES`.
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_index: Dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self._stack: List[int] = []

    def name_id(self, name: str, layer: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYER_NAMES.index(layer))
        return idx

    def wrap(self, fn: Callable, name_id: int) -> Callable:
        """``fn`` recording one span per call (kept lean: it runs on every
        traced call, and its cost is the tracing overhead)."""
        stack = self._stack
        starts, ends, names, parents = self.start, self.end, self.name, self.parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            names.append(name_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    @contextmanager
    def region(self) -> Iterator[None]:
        """A root span for one timed region of the benchmark itself."""
        name_id = self.name_id(DRIVER, DRIVER)
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # ------------------------------------------------------------------
    def split(self) -> Tuple[np.ndarray, np.ndarray, float]:
        """Calls and self seconds per span name inside the timed regions,
        and the total wall time of those regions.

        Spans outside every region (set-up work) are left out.  Spans nest
        strictly, so a span's root is the latest root started before it.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = end - start
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        root = np.maximum.accumulate(np.where(nested, 0, np.arange(len(dur))))
        inside = names[root] == self._name_index.get(DRIVER, -1)
        count = len(self.names)
        calls = np.bincount(names[inside], minlength=count)
        self_s = np.bincount(names[inside], weights=own[inside], minlength=count)
        wall = float(dur[inside & ~nested].sum())
        return calls, self_s, wall


def _resolve(module: str, cls: Optional[str]):
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def install(
    recorder: SpanRecorder,
    probes: Sequence[Tuple[str, str, str, Callable]] = (),
) -> None:
    """Wrap every entry point of :data:`LAYERS` so it records spans.

    ``probes`` are ``(module, class, method, after)`` hooks that call
    ``after(self)`` once the (already wrapped) method returns, for counts
    that only exist as transient state, such as a queue depth; their time
    counts as the benchmark's own.  A listed name that no longer exists
    raises, so a rename in the package cannot silently drop a layer from
    the split.
    """
    for layer, entries in LAYERS.items():
        for module, cls, names in entries:
            owner = _resolve(module, cls)
            for name in names:
                label = f"{cls or module.rsplit('.', 1)[-1]}.{name}"
                raw = owner.__dict__[name] if cls is not None else getattr(owner, name)
                name_id = recorder.name_id(label, layer)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(raw.__func__, name_id))
                else:
                    wrapped = recorder.wrap(raw, name_id)
                setattr(owner, name, wrapped)
    driver_id = recorder.name_id(DRIVER, DRIVER)
    for module, cls, name, after in probes:
        owner = _resolve(module, cls)
        inner = getattr(owner, name)
        # The probe is the benchmark's own work: count it under DRIVER.
        after = recorder.wrap(after, driver_id)

        def probed(self, *args, _inner=inner, _after=after, **kwargs):
            result = _inner(self, *args, **kwargs)
            _after(self)
            return result

        setattr(owner, name, functools.wraps(inner)(probed))
