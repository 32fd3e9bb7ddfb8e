"""Service-side communicators and in-flight collective instances.

A :class:`ServiceCommunicator` is the MCCS service's view of one tenant
communicator: the rank->GPU mapping, the current provider-chosen
:class:`~repro.core.strategy.CollectiveStrategy`, the single service-managed
stream that serializes the communicator's collectives (§4.1), and the
per-strategy-version connection tables.

A :class:`CollectiveInstance` is one issued collective.  Crucially, its
traffic is injected **per rank**: each rank's proxy engine launches its
own share of the flows using *that proxy's* current strategy version.
This is what makes the Figure 4 synchronization hazard expressible — with
the barrier disabled, rank 0 can launch collective ``seq=1`` on the old
ring while ranks 1 and 2 launch it on the new one, and the instance is
flagged inconsistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..cluster.gpu import AsyncOp, Event, GpuDevice, Stream
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.programs import FlowProgramCache
from ..collectives.ring import RingSchedule  # noqa: F401  (re-export for tests)
from ..collectives.types import Collective, ReduceOp, validate_world
from ..netsim.errors import FaultError, NoPathError, ReconfigurationError
from ..netsim.flows import Flow
from ..netsim.routing import RouteIdSelector, RouteMap
from ..telemetry.causal import TraceContext
from ..telemetry.hub import TelemetryHub
from ..telemetry.spans import (
    EVENT_FIRST_FLOW_START,
    EVENT_LAST_FLOW_END,
    EVENT_RANK_LAUNCH,
    Span,
    SpanRecorder,
)
from ..transport.connections import ConnectionTable, connection_key
from .strategy import CollectiveStrategy
from .tracing import CommTrace

_comm_counter = itertools.count()


class VersionedDataPath:
    """Connection tables per strategy version for one communicator.

    Reconfiguration tears down the old version's connections and
    establishes new ones (§4.2); tables are created lazily on first use of
    a version and retired once no in-flight collective references them.
    """

    def __init__(
        self,
        cluster: Cluster,
        job_id: str,
        ecmp_seed: int,
        *,
        stable: bool = False,
    ) -> None:
        self.cluster = cluster
        self.job_id = job_id
        self.ecmp_seed = ecmp_seed
        #: With ``stable=True`` the ECMP discriminator omits the strategy
        #: version: re-established connections of the same edge re-draw the
        #: same path, so measurements are comparable across versions (and
        #: across processes, when the job id is caller-chosen too).
        self.stable = stable
        self._tables: Dict[int, ConnectionTable] = {}
        self._selectors: Dict[int, RouteIdSelector] = {}
        self._inflight: Dict[int, int] = {}
        self.teardowns = 0

    def _build(
        self, strategy: CollectiveStrategy, gpus: Sequence[GpuDevice]
    ) -> None:
        version = strategy.version
        if self.stable:
            discriminator = self.job_id
            fallback_seed = self.ecmp_seed
        else:
            discriminator = f"{self.job_id}/v{version}"
            fallback_seed = self.ecmp_seed + version
        route_map = RouteMap()
        for (src_rank, dst_rank, channel), route_id in strategy.route_map().items():
            key = connection_key(
                self.cluster,
                gpus[src_rank],
                gpus[dst_rank],
                channel,
                discriminator,
            )
            route_map.assign(key, route_id)
        selector = RouteIdSelector(route_map, fallback_seed=fallback_seed)
        self._selectors[version] = selector
        self._tables[version] = ConnectionTable(self.cluster, discriminator)
        self._inflight[version] = 0

    def table_for(
        self, strategy: CollectiveStrategy, gpus: Sequence[GpuDevice]
    ) -> Tuple[ConnectionTable, RouteIdSelector]:
        if strategy.version not in self._tables:
            self._build(strategy, gpus)
        return self._tables[strategy.version], self._selectors[strategy.version]

    def acquire(self, version: int) -> None:
        self._inflight[version] = self._inflight.get(version, 0) + 1

    def release(self, version: int, current_version: int) -> None:
        self._inflight[version] = self._inflight.get(version, 0) - 1
        if self._inflight[version] <= 0 and version < current_version:
            self.retire(version)

    def retire_stale(self, current_version: int) -> None:
        """Tear down tables of superseded versions with nothing in flight.

        Called when a reconfiguration commits, so connections of the old
        configuration are closed as soon as the last collective using
        them drains (§4.2).
        """
        for version in list(self._tables):
            if version < current_version and self._inflight.get(version, 0) <= 0:
                self.retire(version)

    def retire(self, version: int) -> None:
        table = self._tables.pop(version, None)
        if table is not None:
            table.teardown()
            self.teardowns += 1
        self._selectors.pop(version, None)
        self._inflight.pop(version, None)

    def live_versions(self) -> List[int]:
        return sorted(self._tables)


@dataclass
class CollectiveInstance:
    """One issued collective and its per-rank launch state."""

    comm: "ServiceCommunicator"
    seq: int
    kind: Collective
    out_bytes: int
    reduce_op: ReduceOp = ReduceOp.SUM
    root: int = 0
    issue_time: float = 0.0
    dtype: str = "float32"
    send_views: Optional[List[np.ndarray]] = None
    recv_views: Optional[List[np.ndarray]] = None
    on_complete: Optional[Callable[["CollectiveInstance", float], None]] = None
    # filled during execution
    kernel: Optional[AsyncOp] = None
    done_event: Optional[Event] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    rank_versions: Dict[int, int] = field(default_factory=dict)
    #: Root lifecycle span (attached by the deployment's frontend path).
    span: Optional[Span] = None
    #: Causal-trace identity minted by the frontend; threaded into every
    #: flow tag, retry, journal record, and lifecycle event downstream.
    trace_ctx: Optional[TraceContext] = None
    _phase_queued: Optional[Span] = None
    _phase_launch: Optional[Span] = None
    _phase_network: Optional[Span] = None
    _launched: Set[int] = field(default_factory=set)
    _pending_flows: int = 0
    _injected_ranks: Set[int] = field(default_factory=set)
    # failure state
    #: True once the collective was terminated without completing.
    aborted: bool = False
    #: First failure observed (typed; rooted at ReproError).
    error: Optional[BaseException] = None
    #: Launch attempts so far (failure recovery bumps this on retry).
    attempts: int = 1
    _live_flows: Set[Flow] = field(default_factory=set)
    _failed_ranks: Dict[int, BaseException] = field(default_factory=dict)
    #: True after reset_for_retry until the relaunch arrives; keeps the
    #: instance visible to overlapping recovery cycles (a cycle that ran
    #: between a reset and its delayed relaunch must still retry it).
    _awaiting_relaunch: bool = False

    @property
    def world(self) -> int:
        return self.comm.world

    @property
    def completed(self) -> bool:
        return self.end_time is not None and not self.aborted

    @property
    def launch_started(self) -> bool:
        """True once any rank launched (or failed) this attempt."""
        return (
            bool(self._launched)
            or bool(self._failed_ranks)
            or self._awaiting_relaunch
        )

    @property
    def failed_ranks(self) -> Dict[int, BaseException]:
        return dict(self._failed_ranks)

    @property
    def consistent(self) -> bool:
        """True when every rank launched with the same strategy version."""
        return len(set(self.rank_versions.values())) <= 1

    def duration(self) -> float:
        if self.end_time is None:
            raise ValueError(f"collective seq={self.seq} still in flight")
        return self.end_time - self.issue_time

    # ------------------------------------------------------------------
    # causal tracing
    # ------------------------------------------------------------------
    def _causal_annotate(self, kind: str, **attrs: object) -> None:
        hub = self.comm.telemetry
        if self.trace_ctx is not None and hub is not None and hub.causal is not None:
            hub.causal.annotate(
                self.trace_ctx.trace_id, self.comm.sim.now, kind, **attrs
            )

    def _causal_close(self, status: str) -> None:
        hub = self.comm.telemetry
        if self.trace_ctx is not None and hub is not None and hub.causal is not None:
            hub.causal.close(
                self.trace_ctx.trace_id, self.comm.sim.now, status
            )

    # ------------------------------------------------------------------
    # telemetry spans
    # ------------------------------------------------------------------
    def _span_recorder(self) -> Optional[SpanRecorder]:
        if self.span is not None and self.comm.telemetry is not None:
            return self.comm.telemetry.spans
        return None

    def _phase_attrs(self) -> Dict[str, object]:
        return {"app": self.comm.app_id, "comm": f"comm{self.comm.comm_id}"}

    def attach_span(self, span: Span) -> None:
        """Adopt ``span`` as this collective's root lifecycle span and open
        the ``queued`` phase child (issue to first proxy launch)."""
        self.span = span
        recorder = self._span_recorder()
        if recorder is not None:
            self._phase_queued = recorder.begin(
                "queued", span.start, category="phase", parent=span,
                **self._phase_attrs(),
            )

    def _enter_launch_phase(self, now: float) -> None:
        recorder = self._span_recorder()
        if recorder is None:
            return
        if self._phase_queued is not None and not self._phase_queued.finished:
            self._phase_queued.finish(now)
            self._phase_launch = recorder.begin(
                "launch", now, category="phase", parent=self.span,
                **self._phase_attrs(),
            )

    def _enter_network_phase(self, now: float) -> None:
        recorder = self._span_recorder()
        if recorder is None:
            return
        if self._phase_launch is not None and not self._phase_launch.finished:
            self._phase_launch.finish(now)
        self._phase_network = recorder.begin(
            "network", now, category="phase", parent=self.span,
            **self._phase_attrs(),
        )

    def _close_phases(self, now: float) -> None:
        for phase in (self._phase_queued, self._phase_launch, self._phase_network):
            if phase is not None and not phase.finished:
                phase.finish(now)

    # ------------------------------------------------------------------
    def _context(self, strategy: CollectiveStrategy, rank: int) -> "AlgorithmContext":
        from .algorithms import AlgorithmContext

        return AlgorithmContext(
            kind=self.kind,
            out_bytes=self.out_bytes,
            world=self.world,
            rank=rank,
            root=self.root,
            ring_order=strategy.ring.order,
            channels=strategy.channels,
        )

    def rank_launch(self, rank: int, strategy: CollectiveStrategy) -> None:
        """Called by rank ``rank``'s proxy engine when it launches this
        collective under ``strategy``.  Injects that rank's flows after
        the fixed datapath latency."""
        from .algorithms import get_algorithm

        if self.aborted:
            return
        if rank in self._launched:
            raise ReconfigurationError(
                f"rank {rank} double-launched collective seq={self.seq}"
            )
        self._launched.add(rank)
        self._awaiting_relaunch = False
        self.rank_versions[rank] = strategy.version
        comm = self.comm
        if self.span is not None:
            self.span.mark(
                EVENT_RANK_LAUNCH, comm.sim.now,
                rank=rank, version=strategy.version,
            )
        self._enter_launch_phase(comm.sim.now)
        comm.datapath.acquire(strategy.version)
        algorithm = get_algorithm(strategy.algorithm)
        fixed = comm.latency.collective_latency(
            algorithm.steps(self.kind, self.world)
        )
        attempt = self.attempts

        def deferred() -> None:
            if self.aborted or self.attempts != attempt:
                # Aborted (or reset for retry) while the launch was in
                # flight: drop it, but balance the datapath refcount.
                comm.datapath.release(strategy.version, comm.strategy.version)
                return
            try:
                self._inject_rank(rank, strategy)
            except (FaultError, NoPathError) as exc:
                # Injection hit broken infrastructure (down link, dead
                # NIC, crashed host, or a partition with no surviving
                # path): balance the refcount and surface the failure
                # instead of crashing the event loop.
                comm.datapath.release(strategy.version, comm.strategy.version)
                self.rank_failed(rank, exc)

        comm.sim.call_in(fixed, deferred)

    def _inject_rank(self, rank: int, strategy: CollectiveStrategy) -> None:
        from .algorithms import get_algorithm

        comm = self.comm
        if self.start_time is None:
            self.start_time = comm.sim.now
            self._enter_network_phase(comm.sim.now)
            if self.span is not None:
                self.span.mark(EVENT_FIRST_FLOW_START, comm.sim.now)
        table, selector = comm.datapath.table_for(strategy, comm.gpus)
        algorithm = get_algorithm(strategy.algorithm)
        program_key = (strategy, self.kind, self.out_bytes, self.root, rank)
        transfers = comm.program_cache.get(
            program_key,
            lambda: tuple(algorithm.rank_transfers(self._context(strategy, rank))),
        )
        injected_any = False
        src = comm.gpus[rank]
        for transfer in transfers:
            if transfer.nbytes <= 0:
                continue
            dst = comm.gpus[transfer.dst_rank]
            conn = table.establish_edge(src, dst, transfer.channel, selector)
            flow = comm.sim.add_flow(
                transfer.nbytes,
                conn.path,
                job_id=comm.app_id,
                tags={
                    "comm": comm.comm_id,
                    "seq": self.seq,
                    "kind": self.kind.value,
                    "channel": transfer.channel,
                    "rank": rank,
                    **(
                        {"trace": self.trace_ctx.trace_id}
                        if self.trace_ctx is not None
                        else {}
                    ),
                },
                on_complete=lambda f, _t: self._flow_done(f),
                on_fail=lambda f, _t, err, rank=rank: self._flow_failed(
                    f, rank, err
                ),
            )
            self._live_flows.add(flow)
            self._pending_flows += 1
            injected_any = True
            if comm.gate is not None:
                comm.gate.register(flow)
        self._injected_ranks.add(rank)
        comm.datapath.release(strategy.version, comm.strategy.version)
        if not injected_any:
            self._maybe_complete()

    def _flow_done(self, flow: Flow) -> None:
        self._live_flows.discard(flow)
        self._pending_flows -= 1
        self._maybe_complete()

    def _flow_failed(self, flow: Flow, rank: int, error: BaseException) -> None:
        self._live_flows.discard(flow)
        self._pending_flows -= 1
        self.rank_failed(rank, error)

    def _maybe_complete(self) -> None:
        if (
            self.end_time is None
            and not self.aborted
            and not self._failed_ranks
            and len(self._injected_ranks) == self.world
            and self._pending_flows == 0
        ):
            self._finish()

    # ------------------------------------------------------------------
    # failure surface
    # ------------------------------------------------------------------
    def rank_failed(self, rank: int, error: BaseException) -> None:
        """Record that ``rank``'s share of this collective failed.

        First failure per rank wins; the communicator's failure handler
        (failure recovery, when enabled) decides what happens next — with
        no handler installed the collective aborts immediately, NCCL
        async-error style.
        """
        if self.aborted or self.completed or rank in self._failed_ranks:
            return
        self._failed_ranks[rank] = error
        if self.error is None:
            self.error = error
        if self.span is not None:
            self.span.mark(
                "rank_failed", self.comm.sim.now, rank=rank, error=str(error)
            )
        self._causal_annotate("rank_failed", rank=rank, error=str(error))
        self.comm.on_instance_failure(self, rank, error)

    def abort(self, error: BaseException) -> None:
        """Terminate this collective without completing it.

        Surviving flows are cancelled, the tenant's kernel/done-event
        chain is released (so waiters unblock instead of hanging), and
        the typed ``error`` is left on the instance.  Buffers are never
        touched — an aborted collective has undefined output, exactly
        like an aborted NCCL communicator.
        """
        if self.aborted or self.completed:
            return
        self.aborted = True
        if self.error is None:
            self.error = error
        comm = self.comm
        self.end_time = comm.sim.now
        for flow in list(self._live_flows):
            comm.sim.cancel_flow(flow)
        self._live_flows.clear()
        self._pending_flows = 0
        self._close_phases(self.end_time)
        if self.span is not None and not self.span.finished:
            self.span.mark("aborted", self.end_time, error=str(self.error))
            self.span.finish(self.end_time)
        if comm.telemetry is not None:
            comm.telemetry.metrics.counter(
                "mccs_collectives_aborted_total",
                "Collectives terminated by failure handling, by app.",
            ).inc(app=comm.app_id, kind=self.kind.value)
            comm.telemetry.slo.record_abort(comm.app_id)
        self._causal_close("aborted")
        comm.on_instance_finished(self)
        if self.kernel is not None:
            self.kernel.complete()
        if self.on_complete is not None:
            self.on_complete(self, self.end_time)

    def reset_for_retry(self) -> None:
        """Return to the never-launched state so proxies can relaunch.

        Cancels whatever traffic the failed attempt still has in flight
        and clears all per-attempt bookkeeping; the bumped
        :attr:`attempts` makes any still-scheduled injection from the
        old attempt a no-op.
        """
        if self.aborted or self.completed:
            raise ReconfigurationError(
                f"cannot retry finished collective seq={self.seq}"
            )
        self.attempts += 1
        hub = self.comm.telemetry
        if self.trace_ctx is not None and hub is not None and hub.causal is not None:
            hub.causal.new_attempt(self.trace_ctx.trace_id, self.comm.sim.now)
        if hub is not None:
            hub.slo.record_retry(self.comm.app_id)
        for flow in list(self._live_flows):
            self.comm.sim.cancel_flow(flow)
        self._live_flows.clear()
        self._pending_flows = 0
        self._launched.clear()
        self._injected_ranks.clear()
        self.rank_versions.clear()
        self._failed_ranks.clear()
        self.error = None
        self.start_time = None
        self._awaiting_relaunch = True

    def _finish(self) -> None:
        comm = self.comm
        self.end_time = comm.sim.now
        if not self.consistent:
            comm.inconsistent_collectives += 1
            if comm.strict_consistency:
                raise ReconfigurationError(
                    f"collective seq={self.seq} launched with mixed strategy "
                    f"versions {sorted(set(self.rank_versions.values()))}"
                )
        if self.recv_views is not None and self.consistent:
            # The data plane writes straight into the tenant's receive
            # views; without them there is nothing to compute.
            from .algorithms import get_algorithm

            version = next(iter(self.rank_versions.values()))
            strategy = comm.strategy_history[version]
            get_algorithm(strategy.algorithm).run_data(
                self._context(strategy, rank=0),
                self.send_views,
                self.recv_views,
                self.reduce_op,
            )
        self._close_phases(self.end_time)
        if self.span is not None and not self.span.finished:
            self.span.mark(EVENT_LAST_FLOW_END, self.end_time)
            self.span.finish(self.end_time)
        if comm.telemetry is not None:
            metrics = comm.telemetry.metrics
            metrics.counter(
                "mccs_collectives_completed_total",
                "Collectives fully drained, by app and kind.",
            ).inc(app=comm.app_id, kind=self.kind.value)
            metrics.histogram(
                "mccs_collective_duration_seconds",
                "Issue-to-completion time of collectives, by app.",
            ).observe(self.end_time - self.issue_time, app=comm.app_id)
            comm.telemetry.slo.record_completion(
                comm.app_id,
                self.end_time - self.issue_time,
                self.out_bytes,
                self.end_time,
            )
        self._causal_close("completed")
        # Retire from the active set before waking anyone: completion
        # callbacks may immediately destroy the communicator.
        comm.on_instance_finished(self)
        if self.kernel is not None:
            self.kernel.complete()
        if self.on_complete is not None:
            self.on_complete(self, self.end_time)


class ServiceCommunicator:
    """The MCCS service's state for one tenant communicator."""

    def __init__(
        self,
        cluster: Cluster,
        app_id: str,
        gpus: Sequence[GpuDevice],
        strategy: CollectiveStrategy,
        *,
        latency: LatencyModel = MCCS_LATENCY,
        ecmp_seed: int = 0,
        gate=None,
        strict_consistency: bool = False,
        telemetry: Optional[TelemetryHub] = None,
        datapath_tag: Optional[str] = None,
    ) -> None:
        validate_world(len(gpus))
        if strategy.world != len(gpus):
            raise ValueError("strategy world does not match gpu count")
        self.comm_id = next(_comm_counter)
        self.cluster = cluster
        self.sim = cluster.sim
        self.app_id = app_id
        self.gpus = list(gpus)
        self.world = len(gpus)
        self.latency = latency
        self.gate = gate
        self.strategy = strategy
        self.strategy_history: Dict[int, CollectiveStrategy] = {
            strategy.version: strategy
        }
        # ECMP draws normally hash the (process-unique) comm id and the
        # strategy version, modelling fresh 5-tuples per establishment.  A
        # caller-chosen ``datapath_tag`` pins the namespace instead, giving
        # identical draws for identical edges across communicators,
        # versions, and processes — the autotune experiment uses this so
        # tuned-vs-static compares strategies, not path luck.
        self.datapath = VersionedDataPath(
            cluster,
            datapath_tag
            if datapath_tag is not None
            else f"{app_id}/comm{self.comm_id}",
            ecmp_seed,
            stable=datapath_tag is not None,
        )
        #: One service-managed stream per communicator (§4.1).
        self.stream = Stream(cluster.sim, name=f"comm{self.comm_id}.stream")
        #: Communicator-level completion event created at init time and
        #: shared with the shim (its per-op incarnations are fresh events;
        #: see repro.core.sync for the snapshot-semantics discussion).
        self.comm_event = Event(name=f"comm{self.comm_id}.done")
        self.next_seq = 0
        #: Bumped once per committed membership change (grow or shrink);
        #: the journal's ``membership_change`` records carry this value.
        self.membership_epoch = 0
        self.active_instances: Set[int] = set()
        self.inconsistent_collectives = 0
        self.strict_consistency = strict_consistency
        #: Every issued collective (§4.3 tracing API); see :attr:`instances`.
        self.trace = CommTrace(self.comm_id, app_id)
        self.telemetry = telemetry
        self.destroyed = False
        #: Set once the communicator is irrecoverably failed; subsequent
        #: tenant requests are rejected with :class:`CommunicatorError`.
        self.aborted = False
        self.abort_error: Optional[BaseException] = None
        #: Installed by failure recovery: ``handler(comm, instance, rank,
        #: error)``.  ``instance`` may be None (heartbeat-detected death
        #: with nothing in flight); ``rank`` may be None (deadline expiry).
        self.failure_handler: Optional[
            Callable[
                ["ServiceCommunicator", Optional[CollectiveInstance],
                 Optional[int], BaseException],
                None,
            ]
        ] = None
        #: Compiled per-rank transfer lists, keyed by everything they
        #: depend on (strategy incl. ring order/channels/route-ids, kind,
        #: sizes, root, rank); traffic loops reissue identical collectives.
        self.program_cache = FlowProgramCache()
        #: Provider-side observers of finished (completed *or* aborted)
        #: collectives — e.g. the autotuner's measurement feed.  Unlike
        #: :attr:`CollectiveInstance.on_complete` (owned by the tenant
        #: shim), many listeners can coexist.
        self.completion_listeners: List[
            Callable[[CollectiveInstance], None]
        ] = []
        #: Deployment hook journaling each *first* commit of a version
        #: (write-ahead ``install_strategy`` records).
        self.on_commit: Optional[
            Callable[["ServiceCommunicator", CollectiveStrategy], None]
        ] = None

    @property
    def instances(self) -> List[CollectiveInstance]:
        """Every issued collective, indexed by ``seq`` (the trace's list)."""
        return self.trace.instances

    # ------------------------------------------------------------------
    def commit_strategy(self, strategy: CollectiveStrategy) -> None:
        """Record a new strategy version (called once a reconfiguration's
        barrier has resolved; proxies switch independently)."""
        fresh = strategy.version not in self.strategy_history
        self.strategy = strategy
        self.strategy_history[strategy.version] = strategy
        self.datapath.retire_stale(strategy.version)
        if fresh and self.on_commit is not None:
            self.on_commit(self, strategy)

    def apply_membership(
        self, gpus: Sequence[GpuDevice], strategy: CollectiveStrategy
    ) -> None:
        """Install a new rank set at a membership cutover (grow/shrink).

        Callers (:class:`~repro.core.elastic.ElasticCoordinator`) must
        have drained the communicator first: rank renumbering invalidates
        every in-flight instance's rank→GPU mapping, so cutting over with
        collectives active would corrupt their flows.
        """
        validate_world(len(gpus))
        if strategy.world != len(gpus):
            raise ValueError("strategy world does not match gpu count")
        if self.active_instances:
            raise ReconfigurationError(
                f"communicator {self.comm_id} still has "
                f"{len(self.active_instances)} collective(s) in flight"
            )
        self.gpus = list(gpus)
        self.world = len(gpus)
        self.membership_epoch += 1
        self.commit_strategy(strategy)

    def launch_frontier(self) -> int:
        """Sequence number of the last collective whose kernel started.

        Launch fan-out is synchronous across ranks (the service stream is
        FIFO), so this is exactly the ``launched_seq`` cursor a restarted
        proxy engine must resume from: instances past the frontier are
        still queued on the stream and will arrive through the normal
        :meth:`ProxyEngine.request_launch` ordering check.
        """
        frontier = -1
        for instance in self.instances:
            if (
                instance.completed
                or instance.aborted
                or instance.launch_started
            ):
                frontier = instance.seq
            else:
                break
        return frontier

    def ranks_by_host(self) -> Dict[int, List[int]]:
        by_host: Dict[int, List[int]] = {}
        for rank, gpu in enumerate(self.gpus):
            by_host.setdefault(gpu.host_id, []).append(rank)
        return by_host

    def add_completion_listener(
        self, listener: Callable[[CollectiveInstance], None]
    ) -> None:
        """Subscribe ``listener`` to every finished collective instance."""
        self.completion_listeners.append(listener)

    def on_instance_finished(self, instance: CollectiveInstance) -> None:
        self.active_instances.discard(instance.seq)
        for listener in list(self.completion_listeners):
            listener(instance)

    def on_instance_failure(
        self,
        instance: CollectiveInstance,
        rank: Optional[int],
        error: BaseException,
    ) -> None:
        """Route one rank-level failure to recovery (or fail fast)."""
        if self.failure_handler is not None:
            self.failure_handler(self, instance, rank, error)
        else:
            instance.abort(error)

    def abort(self, error: BaseException) -> None:
        """Irrecoverably fail this communicator.

        Every in-flight collective aborts with ``error`` (waiters
        unblock), and future requests on the communicator raise
        :class:`CommunicatorError` — the graceful-degradation path when
        recovery gives up.  Other communicators are untouched.
        """
        if self.aborted:
            return
        self.aborted = True
        self.abort_error = error
        for seq in sorted(self.active_instances):
            self.instances[seq].abort(error)
        if self.telemetry is not None:
            self.telemetry.events.log(
                self.sim.now,
                "comm_aborted",
                f"comm{self.comm_id} aborted: {error}",
                comm=self.comm_id,
                app=self.app_id,
            )

    def describe(self) -> Dict[str, object]:
        """Management-API snapshot consumed by the centralized controller
        (§4.3: the set of GPUs/hosts per communicator and the current
        collective strategy and network configuration)."""
        return {
            "comm_id": self.comm_id,
            "app_id": self.app_id,
            "gpus": [g.global_id for g in self.gpus],
            "hosts": sorted({g.host_id for g in self.gpus}),
            "ring": list(self.strategy.ring.order),
            "channels": self.strategy.channels,
            "algorithm": self.strategy.algorithm,
            "routes": self.strategy.route_map(),
            "version": self.strategy.version,
        }
