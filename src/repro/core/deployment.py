"""Deployment-wide coordination of the MCCS services.

One :class:`MccsDeployment` spans the cluster: it owns the per-host
services, the traffic gate manager, the trace store, and the
reconfiguration manager, and it exposes the provider-facing management API
that the centralized controller consumes (§4.3):

* :meth:`describe` — active communicators, their GPU/host sets and current
  strategy/network configuration;
* :meth:`trace` — fine-grained collective traces;
* :meth:`reconfigure` — push a new strategy through the Figure 4 barrier;
* :meth:`set_traffic_schedule` — install TS transmission windows.

Applications never touch this object directly; they connect through
:meth:`connect`, which returns the shim (:class:`~repro.core.shim.MccsClient`).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle broken for type hints
    from ..autotune import AutotuneConfig, AutoTuner, StrategyPlanner, TuningTable
    from .elastic import ElasticCoordinator, ElasticPolicy
    from .recovery import HeartbeatMonitor, RecoveryManager, RecoveryPolicy
    from .supervisor import ServiceSupervisor

from ..baselines.nccl import default_channels
from ..cluster.gpu import AsyncOp, Event, GpuDevice
from ..cluster.specs import Cluster
from ..collectives.cost_model import LatencyModel, MCCS_LATENCY
from ..collectives.types import input_bytes
from ..netsim.errors import (
    CollectiveTimeoutError,
    CommunicatorError,
    InvalidBufferError,
    MccsError,
)
from ..telemetry.hub import TelemetryHub
from .admission import AdmissionController, AdmissionPolicy
from .communicator import CollectiveInstance, ServiceCommunicator
from .journal import (
    ControlPlaneState,
    StateJournal,
    snapshot_deployment,
    strategy_descriptor,
)
from .messages import (
    BufferRef,
    CollectiveRequest,
    CollectiveResponse,
    CreateCommunicatorRequest,
    CreateCommunicatorResponse,
    DestroyCommunicatorRequest,
)
from .proxy import ProxyEngine
from .reconfig import DEFAULT_CONTROL_RING_LATENCY, ReconfigManager, ReconfigSession
from .service import MccsService
from .strategy import CollectiveStrategy, default_strategy
from .tracing import CommTrace
from .transport import TrafficGateManager, WindowSchedule


class MccsDeployment:
    """All MCCS services of a cluster plus the provider control surface."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        latency: LatencyModel = MCCS_LATENCY,
        datapath_latency: Optional[float] = None,
        ecmp_seed: int = 0,
        control_latency: float = DEFAULT_CONTROL_RING_LATENCY,
        strict_consistency: bool = False,
        telemetry: Optional[TelemetryHub] = None,
    ) -> None:
        if datapath_latency is not None:
            # §6.2 knob: override the shim->service hop without callers
            # having to rebuild the whole latency model.
            if datapath_latency < 0:
                raise ValueError("datapath_latency must be non-negative")
            latency = replace(latency, datapath=datapath_latency)
        self.cluster = cluster
        self.sim = cluster.sim
        self.latency = latency
        self.ecmp_seed = ecmp_seed
        self.control_latency = control_latency
        self.strict_consistency = strict_consistency
        self._telemetry = telemetry if telemetry is not None else TelemetryHub()
        network = self._telemetry.attach_network(cluster.sim)
        network.set_program_cache_provider(self.program_cache_stats)
        #: Write-ahead journal of control-plane mutations.  Owned here —
        #: not by any per-host service — so it survives service crashes;
        #: MccsService.restart() replays it.
        self.journal = StateJournal(telemetry=self._telemetry)
        self.services: Dict[int, MccsService] = {
            host.host_id: MccsService(cluster, host, telemetry=self._telemetry)
            for host in cluster.hosts
        }
        for service in self.services.values():
            service.deployment = self
        self.gates = TrafficGateManager(cluster.sim, telemetry=self._telemetry)
        self.reconfig = ReconfigManager(
            cluster.sim, self.proxies_of, telemetry=self._telemetry
        )
        self._comms: Dict[int, ServiceCommunicator] = {}
        self._comm_owner: Dict[int, str] = {}
        #: Optional provider hook deciding the initial strategy of every
        #: tenant-created communicator (installed by the controller via
        #: CentralManager.manage_admissions()).
        self.strategy_factory: Optional[
            Callable[[str, Sequence[GpuDevice], int], CollectiveStrategy]
        ] = None
        #: Failure recovery, armed via :meth:`enable_recovery`.
        self.recovery: Optional["RecoveryManager"] = None
        self.heartbeat_monitor: Optional["HeartbeatMonitor"] = None
        #: Online strategy autotuner, armed via :meth:`enable_autotuning`.
        self.autotuner: Optional["AutoTuner"] = None
        #: Admission control, armed via :meth:`configure_admission`.
        self.admission: Optional[AdmissionController] = None
        #: Crash supervisor, armed via :meth:`enable_service_supervision`.
        self.supervisor: Optional["ServiceSupervisor"] = None
        #: Elastic membership coordinator, armed via
        #: :meth:`enable_elasticity`.
        self.elastic: Optional["ElasticCoordinator"] = None
        #: Tenant-facing service gateway; installed by
        #: ``repro.service.gateway.ServiceGateway(deployment, ...)``.
        self.gateway = None
        #: Live tenant registry (installed by ``TenantRegistry``; the
        #: journal's live-state snapshot reads tenant tables through it).
        self.tenant_registry = None
        self._telemetry.set_resilience_provider(self.resilience_stats)

    # ------------------------------------------------------------------
    # failure recovery
    # ------------------------------------------------------------------
    def enable_recovery(
        self,
        policy: Optional["RecoveryPolicy"] = None,
        *,
        heartbeat_until: Optional[float] = None,
    ) -> "RecoveryManager":
        """Arm failure recovery for every (current and future) communicator.

        Args:
            policy: Recovery knobs; defaults to :class:`RecoveryPolicy`.
            heartbeat_until: Also run the proxy :class:`HeartbeatMonitor`
                up to this simulation time (the monitor must be bounded —
                the simulator runs to quiescence).  ``None`` relies on
                data-path signals alone.
        """
        from .recovery import HeartbeatMonitor, RecoveryManager

        if self.recovery is None:
            self.recovery = RecoveryManager(self, policy)
        elif policy is not None:
            self.recovery.policy = policy
        for comm in self._comms.values():
            self.recovery.attach(comm)
        if heartbeat_until is not None:
            self.heartbeat_monitor = HeartbeatMonitor(
                self,
                self.recovery,
                interval=self.recovery.policy.heartbeat_interval,
                until=heartbeat_until,
            ).start()
        return self.recovery

    # ------------------------------------------------------------------
    # resilience: admission control, crash supervision, journal state
    # ------------------------------------------------------------------
    def configure_admission(
        self, policy: Optional[AdmissionPolicy] = None
    ) -> AdmissionController:
        """Arm (or re-policy) admission control over data-path requests.

        Every collective/p2p request entering any frontend engine is then
        checked against per-tenant QoS quotas and the deployment-wide
        overload cap; sheds raise :class:`~repro.errors.
        AdmissionRejectedError` back through the shim.
        """
        if self.admission is None:
            self.admission = AdmissionController(
                self, policy, telemetry=self._telemetry
            )
        elif policy is not None:
            self.admission.policy = policy
        # SLO accounting resolves tenants to QoS classes through admission
        # control once it is armed.
        self._telemetry.slo.class_resolver = self.admission.class_of
        return self.admission

    def configure_slo(self, policy) -> None:
        """Install declarative per-QoS-class SLO targets
        (:class:`~repro.telemetry.slo.SloPolicy`); violations emit
        ``slo_violation`` events and flight-recorder dumps."""
        self._telemetry.set_slo_policy(policy)

    def enable_service_supervision(
        self, restart_delay: float = 0.02
    ) -> "ServiceSupervisor":
        """Arm the supervisor that restarts crashed services from the
        journal after ``restart_delay`` simulated seconds."""
        from .supervisor import ServiceSupervisor

        if self.supervisor is None:
            self.supervisor = ServiceSupervisor(
                self, restart_delay=restart_delay
            )
        else:
            self.supervisor.restart_delay = restart_delay
        return self.supervisor

    def enable_elasticity(
        self, policy: Optional["ElasticPolicy"] = None
    ) -> "ElasticCoordinator":
        """Arm live membership changes (elastic grow/shrink) for every
        communicator; see :class:`~repro.core.elastic.ElasticCoordinator`."""
        from .elastic import ElasticCoordinator

        if self.elastic is None:
            self.elastic = ElasticCoordinator(self, policy)
        elif policy is not None:
            self.elastic.policy = policy
        return self.elastic

    def crash_service(self, host_id: int) -> None:
        """Kill one host's service process (the host itself survives)."""
        self.service_of(host_id).crash()

    def restart_service(self, host_id: int) -> int:
        """Restart one host's service by journal replay; returns the
        number of records replayed (0 when already alive)."""
        return self.service_of(host_id).restart()

    def _journal_commit(self, comm: ServiceCommunicator, strategy) -> None:
        """on_commit hook: journal every freshly committed strategy."""
        self.journal.append(
            self.sim.now,
            "install_strategy",
            comm_id=comm.comm_id,
            strategy=strategy_descriptor(strategy),
        )

    def control_state(self) -> ControlPlaneState:
        """Snapshot of the live control plane in journal-comparable form."""
        return snapshot_deployment(self)

    def verify_journal(self) -> List[str]:
        """Replay the journal and diff it against the live control plane.

        Returns the (empty when consistent) list of mismatch descriptions;
        the crash/restart tests assert it stays empty across kill cycles.
        """
        from .journal import replay_journal

        return replay_journal(self.journal.records()).diff(self.control_state())

    def resilience_stats(self) -> Dict[str, int]:
        """Provider for the telemetry summary's resilience lines."""
        stats = {
            "journal_records": len(self.journal),
            "journal_appends": self.journal.appends_total,
            "service_crashes": sum(
                service.crashes for service in self.services.values()
            ),
            "service_restarts": sum(
                service.restarts for service in self.services.values()
            ),
            "upgrades": sum(
                len(service.upgrades) for service in self.services.values()
            ),
        }
        if self.admission is not None:
            stats["admitted"] = self.admission.admitted_total
            stats["shed"] = self.admission.shed_total
        return stats

    # ------------------------------------------------------------------
    # strategy autotuning
    # ------------------------------------------------------------------
    def enable_autotuning(
        self,
        config: Optional["AutotuneConfig"] = None,
        *,
        planner: Optional["StrategyPlanner"] = None,
        table: Optional["TuningTable"] = None,
    ) -> "AutoTuner":
        """Arm the online autotuner for every (current and future)
        communicator.

        The tuner feeds measured collective durations into a
        bounded-exploration bandit per (kind, world, size-bucket) and
        applies strategy changes exclusively through the §4.2
        reconfiguration barrier.

        Args:
            config: Bandit/exploration knobs; defaults to
                :class:`~repro.autotune.AutotuneConfig`.
            planner: Offline planner to seed arms from; defaults to one
                built on this deployment's cluster and latency model.
            table: A (possibly pre-planned, possibly loaded-from-JSON)
                tuning table; defaults to an empty one that grows online.
        """
        from ..autotune import AutoTuner

        if self.autotuner is None:
            self.autotuner = AutoTuner(
                self, config=config, planner=planner, table=table
            )
        elif config is not None:
            self.autotuner.config = config
        for comm in self._comms.values():
            self.autotuner.attach(comm)
        return self.autotuner

    # ------------------------------------------------------------------
    # application-facing entry point
    # ------------------------------------------------------------------
    def connect(self, app_id: str) -> "MccsClient":
        """Attach an application; returns its shim library instance."""
        from .shim import MccsClient

        return MccsClient(self, app_id)

    def service_of(self, host_id: int) -> MccsService:
        return self.services[host_id]

    def service_of_gpu(self, gpu: GpuDevice) -> MccsService:
        return self.services[gpu.host_id]

    # ------------------------------------------------------------------
    # request handlers invoked by the frontend engines
    # ------------------------------------------------------------------
    def handle_create_communicator(
        self, app_id: str, request: CreateCommunicatorRequest
    ) -> CreateCommunicatorResponse:
        gpus = [self.cluster.gpu(i) for i in request.gpu_global_ids]
        comm = self.create_communicator(app_id, gpus)
        root_host = self.cluster.hosts[gpus[0].host_id]
        handle = root_host.ipc.export_event(comm.comm_event)
        return CreateCommunicatorResponse(comm_id=comm.comm_id, done_event=handle)

    def create_communicator(
        self,
        app_id: str,
        gpus: Sequence[GpuDevice],
        *,
        channels: Optional[int] = None,
        strategy: Optional[CollectiveStrategy] = None,
        datapath_tag: Optional[str] = None,
    ) -> ServiceCommunicator:
        """Create a communicator; the tenant's rank order is preserved but
        the *strategy* belongs to the provider from here on."""
        if channels is None:
            channels = default_channels(gpus)
        if strategy is None:
            if self.strategy_factory is not None:
                strategy = self.strategy_factory(app_id, gpus, channels)
            else:
                strategy = default_strategy(len(gpus), channels)
        comm = ServiceCommunicator(
            self.cluster,
            app_id,
            gpus,
            strategy,
            latency=self.latency,
            ecmp_seed=self.ecmp_seed,
            gate=self.gates.gate_for(app_id),
            strict_consistency=self.strict_consistency,
            telemetry=self._telemetry,
            datapath_tag=datapath_tag,
        )
        self.journal.append(
            self.sim.now,
            "create_communicator",
            app=app_id,
            comm_id=comm.comm_id,
            gpus=[gpu.global_id for gpu in gpus],
            strategy=strategy_descriptor(comm.strategy),
        )
        comm.on_commit = self._journal_commit
        self._comms[comm.comm_id] = comm
        self._comm_owner[comm.comm_id] = app_id
        for rank, gpu in enumerate(comm.gpus):
            self.service_of_gpu(gpu).proxy_for(gpu.global_id).register(comm, rank)
        if self.recovery is not None:
            self.recovery.attach(comm)
        if self.autotuner is not None:
            self.autotuner.attach(comm)
        return comm

    def handle_destroy_communicator(
        self, app_id: str, request: DestroyCommunicatorRequest
    ) -> None:
        comm = self._owned_comm(app_id, request.comm_id)
        if comm.active_instances:
            raise CommunicatorError(
                f"communicator {comm.comm_id} still has "
                f"{len(comm.active_instances)} collective(s) in flight"
            )
        self.journal.append(
            self.sim.now, "destroy_communicator", app=app_id, comm_id=comm.comm_id
        )
        for rank, gpu in enumerate(comm.gpus):
            self.service_of_gpu(gpu).proxy_for(gpu.global_id).unregister(comm, rank)
        for version in comm.datapath.live_versions():
            comm.datapath.retire(version)
        comm.destroyed = True
        del self._comms[comm.comm_id]
        del self._comm_owner[comm.comm_id]
        self.reconfig.abandon(comm.comm_id)

    def handle_collective(
        self, app_id: str, request: CollectiveRequest
    ) -> CollectiveResponse:
        """Validate, sequence, and enqueue one collective (§4.1).

        The request is turned into a :class:`CollectiveInstance` whose
        kernel is enqueued on the communicator's service stream; when the
        kernel starts, the launch fans out to each rank's proxy engine.
        """
        comm = self._owned_comm(app_id, request.comm_id)
        self._check_not_aborted(comm)
        if request.out_bytes <= 0:
            raise CommunicatorError("collective size must be positive")
        send_views, recv_views = self._validated_views(app_id, comm, request)
        seq = comm.next_seq
        comm.next_seq += 1
        tracer = self._telemetry.causal
        trace_ctx = None
        if tracer is not None:
            trace_ctx = tracer.mint_context(
                tenant=app_id,
                comm_id=f"comm{comm.comm_id}",
                seq=seq,
                kind=request.kind.value,
                nbytes=request.out_bytes,
                strategy_version=comm.strategy.version,
            )
            tracer.begin(trace_ctx, self.sim.now)
        self.journal.append(
            self.sim.now,
            "collective_issued",
            app=app_id,
            comm_id=comm.comm_id,
            seq=seq,
            kind=request.kind.value,
            bytes=request.out_bytes,
            **(
                {"trace": trace_ctx.trace_id} if trace_ctx is not None else {}
            ),
        )
        span = self._telemetry.spans.begin(
            f"{request.kind.value} comm{comm.comm_id}.s{seq}",
            self.sim.now,
            category="collective",
            app=app_id,
            comm=f"comm{comm.comm_id}",
            seq=seq,
            kind=request.kind.value,
            bytes=request.out_bytes,
            **(
                {"trace": trace_ctx.trace_id} if trace_ctx is not None else {}
            ),
        )
        self._telemetry.metrics.counter(
            "mccs_collectives_issued_total",
            "Collectives accepted by the frontend, by app and kind.",
        ).inc(app=app_id, kind=request.kind.value)
        instance = CollectiveInstance(
            comm=comm,
            seq=seq,
            kind=request.kind,
            out_bytes=request.out_bytes,
            reduce_op=request.reduce_op,
            root=request.root,
            issue_time=self.sim.now,
            dtype=request.dtype,
            send_views=send_views,
            recv_views=recv_views,
        )
        instance.trace_ctx = trace_ctx
        if trace_ctx is not None and tracer is not None:
            trace = tracer.get(trace_ctx.trace_id)
            if trace is not None:
                trace.root_span_id = span.span_id
        comm.trace.record_issue(instance)
        comm.active_instances.add(seq)
        instance.attach_span(span)

        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        if request.stream_event is not None:
            app_event = root_host.ipc.open_event(request.stream_event)
            comm.stream.wait_event(app_event)

        def fan_out() -> None:
            if comm.aborted and not instance.aborted:
                # The communicator died while this kernel sat queued on
                # the stream: terminate the instance (completing the
                # kernel) so the stream keeps draining for waiters.
                instance.abort(
                    comm.abort_error
                    if comm.abort_error is not None
                    else CommunicatorError(f"communicator {comm.comm_id} aborted")
                )
                return
            for rank, gpu in enumerate(comm.gpus):
                proxy = self.service_of_gpu(gpu).proxy_for(gpu.global_id)
                proxy.request_launch(rank, instance)

        kernel = AsyncOp(name=f"comm{comm.comm_id}.seq{seq}", on_start=fan_out)
        instance.kernel = kernel
        comm.stream.enqueue(kernel)
        done_event = Event(name=f"comm{comm.comm_id}.seq{seq}.done")
        instance.done_event = done_event
        comm.stream.record_event(done_event)
        self._arm_deadline(comm, instance)
        handle = root_host.ipc.export_event(done_event)
        return CollectiveResponse(comm_id=comm.comm_id, seq=seq, done_event=handle)

    def _arm_deadline(
        self, comm: ServiceCommunicator, instance: CollectiveInstance
    ) -> None:
        """Watchdog: a collective that neither completes nor aborts within
        the recovery policy's deadline surfaces a typed timeout.

        The watchdog re-arms after firing so a stalled retry keeps being
        reported; recovery's attempt cap (or instance completion) stops it.
        """
        if self.recovery is None:
            return
        deadline = self.recovery.policy.collective_deadline
        if deadline is None:
            return

        def expired() -> None:
            if instance.completed or instance.aborted or comm.destroyed:
                return
            error = CollectiveTimeoutError(
                f"collective seq={instance.seq} on comm {comm.comm_id} "
                f"exceeded its {deadline:g}s deadline "
                f"(attempt {instance.attempts})"
            )
            if instance.error is None:
                instance.error = error
            self._telemetry.metrics.counter(
                "mccs_collective_deadlines_total",
                "Collective deadline expiries detected by the watchdog.",
            ).inc(app=comm.app_id)
            self._telemetry.slo.record_deadline_miss(comm.app_id)
            if self._telemetry.flight is not None:
                self._telemetry.flight.trigger(
                    "deadline",
                    self.sim.now,
                    trace_id=(
                        instance.trace_ctx.trace_id
                        if instance.trace_ctx is not None
                        else None
                    ),
                    comm=comm.comm_id,
                    seq=instance.seq,
                    attempt=instance.attempts,
                )
            comm.on_instance_failure(instance, None, error)
            self.sim.call_in(deadline, expired)

        self.sim.call_in(deadline, expired)

    def handle_p2p(self, app_id: str, request) -> "P2pResponse":
        """Point-to-point transfer between two ranks (§5 extension).

        P2P ops serialize on the communicator's service stream like
        collectives, but do not participate in the reconfiguration
        sequence numbering — they involve only two ranks, so the Figure 4
        barrier (which relies on every collective involving every rank)
        does not apply; they simply use whatever connections the current
        strategy version provides.
        """
        from .messages import P2pRequest, P2pResponse

        assert isinstance(request, P2pRequest)
        comm = self._owned_comm(app_id, request.comm_id)
        self._check_not_aborted(comm)
        if request.nbytes <= 0:
            raise CommunicatorError("transfer size must be positive")
        if not (
            0 <= request.src_rank < comm.world
            and 0 <= request.dst_rank < comm.world
        ) or request.src_rank == request.dst_rank:
            raise CommunicatorError(
                f"bad p2p ranks ({request.src_rank} -> {request.dst_rank})"
            )
        dtype = np.dtype(request.dtype)
        send_view = recv_view = None
        if request.send_ref is not None:
            if request.send_ref.nbytes != request.nbytes:
                raise InvalidBufferError("send buffer size mismatch")
            manager = self.service_of_gpu(comm.gpus[request.src_rank]).memory
            send_view = manager.view(app_id, request.send_ref, dtype)
        if request.recv_ref is not None:
            if request.recv_ref.nbytes != request.nbytes:
                raise InvalidBufferError("recv buffer size mismatch")
            manager = self.service_of_gpu(comm.gpus[request.dst_rank]).memory
            recv_view = manager.view(app_id, request.recv_ref, dtype)

        root_host = self.cluster.hosts[comm.gpus[0].host_id]
        if request.stream_event is not None:
            app_event = root_host.ipc.open_event(request.stream_event)
            comm.stream.wait_event(app_event)
        done_event = Event(name=f"comm{comm.comm_id}.p2p.done")

        def start() -> None:
            strategy = comm.strategy
            comm.datapath.acquire(strategy.version)
            fixed = comm.latency.collective_latency(1)

            def inject() -> None:
                table, selector = comm.datapath.table_for(strategy, comm.gpus)
                conn = table.establish_edge(
                    comm.gpus[request.src_rank],
                    comm.gpus[request.dst_rank],
                    0,
                    selector,
                )
                flow = self.sim.add_flow(
                    request.nbytes,
                    conn.path,
                    job_id=comm.app_id,
                    tags={"comm": comm.comm_id, "p2p": True},
                    on_complete=lambda _f, _t: finish(),
                )
                if comm.gate is not None:
                    comm.gate.register(flow)

            def finish() -> None:
                if send_view is not None and recv_view is not None:
                    np.copyto(recv_view, send_view)
                comm.datapath.release(strategy.version, comm.strategy.version)
                kernel.complete()

            self.sim.call_in(fixed, inject)

        kernel = AsyncOp(name=f"comm{comm.comm_id}.p2p", on_start=start)
        comm.stream.enqueue(kernel)
        comm.stream.record_event(done_event)
        handle = root_host.ipc.export_event(done_event)
        return P2pResponse(comm_id=comm.comm_id, done_event=handle)

    def program_cache_stats(self) -> Dict[str, int]:
        """Aggregate flow-program cache stats over all live communicators
        (the provider for the ``mccs_program_cache_*`` gauges)."""
        totals = {"size": 0, "hits": 0, "misses": 0, "evictions": 0}
        for comm in self._comms.values():
            for name, value in comm.program_cache.stats().items():
                totals[name] += value
        return totals

    def network_utilization(self, min_utilization: float = 0.0) -> Dict[str, float]:
        """Provider-side view of current link utilization (never exposed
        to tenants — the confidentiality point of §2.2)."""
        return self.sim.link_utilization(min_utilization)

    def _validated_views(
        self, app_id: str, comm: ServiceCommunicator, request: CollectiveRequest
    ) -> Tuple[Optional[List], Optional[List]]:
        """Bounds-check buffer references and materialize numpy views."""
        if not request.send_refs:
            return None, None
        if len(request.send_refs) != comm.world:
            raise InvalidBufferError("need one send buffer per rank")
        dtype = np.dtype(request.dtype)
        expected = input_bytes(request.kind, request.out_bytes, comm.world)
        send_views = []
        for rank, ref in enumerate(request.send_refs):
            if ref.nbytes != expected:
                raise InvalidBufferError(
                    f"rank {rank} send buffer is {ref.nbytes} bytes; "
                    f"{request.kind} of {request.out_bytes} needs {expected}"
                )
            manager = self.service_of_gpu(comm.gpus[rank]).memory
            send_views.append(manager.view(app_id, ref, dtype))
        recv_views = None
        if request.recv_refs:
            if len(request.recv_refs) != comm.world:
                raise InvalidBufferError("need one recv buffer per rank")
            recv_views = []
            for rank, ref in enumerate(request.recv_refs):
                if ref.nbytes != request.out_bytes:
                    raise InvalidBufferError(
                        f"rank {rank} recv buffer is {ref.nbytes} bytes; the "
                        f"output-buffer convention requires {request.out_bytes}"
                    )
                manager = self.service_of_gpu(comm.gpus[rank]).memory
                recv_views.append(manager.view(app_id, ref, dtype))
        return send_views, recv_views

    def _check_not_aborted(self, comm: ServiceCommunicator) -> None:
        if comm.aborted:
            raise CommunicatorError(
                f"communicator {comm.comm_id} was aborted by failure "
                f"recovery: {comm.abort_error}"
            )

    def _owned_comm(self, app_id: str, comm_id: int) -> ServiceCommunicator:
        comm = self._comms.get(comm_id)
        if comm is None:
            raise CommunicatorError(f"unknown communicator {comm_id}")
        if self._comm_owner[comm_id] != app_id:
            raise CommunicatorError(
                f"communicator {comm_id} belongs to "
                f"{self._comm_owner[comm_id]!r}, not {app_id!r}"
            )
        return comm

    # ------------------------------------------------------------------
    # provider-facing management API (§4.3)
    # ------------------------------------------------------------------
    def communicators(self) -> List[ServiceCommunicator]:
        return list(self._comms.values())

    def communicator(self, comm_id: int) -> ServiceCommunicator:
        try:
            return self._comms[comm_id]
        except KeyError:
            raise CommunicatorError(f"unknown communicator {comm_id}") from None

    def describe(self) -> List[Dict[str, object]]:
        """Cluster-wide snapshot for the centralized controller."""
        return [comm.describe() for comm in self._comms.values()]

    def trace(self, comm_id: int) -> CommTrace:
        """The §4.3 trace of a live communicator: its issued collectives."""
        return self.communicator(comm_id).trace

    def telemetry(self) -> TelemetryHub:
        """Provider-side observability surface: metrics, spans, decision
        events, and link-utilization series, with exporters attached
        (:meth:`TelemetryHub.to_prometheus`, :meth:`~TelemetryHub.to_json`,
        :meth:`~TelemetryHub.to_chrome_trace`)."""
        return self._telemetry

    def proxies_of(self, comm: ServiceCommunicator) -> List[ProxyEngine]:
        return [
            self.service_of_gpu(gpu).proxy_for(gpu.global_id) for gpu in comm.gpus
        ]

    def reconfigure(
        self,
        comm_id: int,
        *,
        ring: Optional[Sequence[int]] = None,
        routes: Optional[Dict[Tuple[int, int, int], int]] = None,
        channels: Optional[int] = None,
        algorithm: Optional[str] = None,
        delays: Optional[Sequence[float]] = None,
        barrier_enabled: bool = True,
        barrier_timeout: Optional[float] = None,
        on_done: Optional[Callable[[ReconfigSession], None]] = None,
        on_failed: Optional[Callable[[ReconfigSession], None]] = None,
    ) -> ReconfigSession:
        """Provider command: move a communicator to a new strategy."""
        from ..collectives.ring import RingSchedule

        comm = self.communicator(comm_id)
        self._check_not_aborted(comm)
        new_strategy = comm.strategy.evolve(
            ring=RingSchedule(tuple(ring)) if ring is not None else None,
            channels=channels,
            algorithm=algorithm,
            routes=routes,
        )
        return self.reconfig.reconfigure(
            comm,
            new_strategy,
            delays=delays,
            barrier_enabled=barrier_enabled,
            control_latency=self.control_latency,
            barrier_timeout=barrier_timeout,
            on_done=on_done,
            on_failed=on_failed,
        )

    def set_traffic_schedule(
        self, app_id: str, schedule: Optional[WindowSchedule]
    ) -> None:
        """Install (or clear) TS transmission windows for a tenant."""
        self.gates.set_schedule(app_id, schedule)

    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Advance the shared simulation clock (driver convenience)."""
        return self.sim.run(until=until)
