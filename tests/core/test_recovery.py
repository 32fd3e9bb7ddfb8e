"""Failure detection and recovery: retries, aborts, reform, heartbeats.

Targeted unit coverage for :mod:`repro.core.recovery` and the barrier
timeout of :mod:`repro.core.reconfig`; the chaos suite (``tests/chaos``)
covers the same machinery under randomized fault plans.
"""

import numpy as np
import pytest

from repro.core.recovery import HeartbeatMonitor, RecoveryPolicy, fault_kind
from repro.errors import (
    CollectiveTimeoutError,
    CommunicatorError,
    HeartbeatTimeoutError,
    HostCrashedError,
    LinkDownError,
    NicFailedError,
    NoPathError,
    ReconfigurationError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.netsim.units import MB
from repro.telemetry import EVENT_FIRST_FLOW_START, EVENT_LAST_FLOW_END


@pytest.fixture
def injector(cluster, deployment):
    return FaultInjector(cluster, deployment=deployment, telemetry=deployment.telemetry())


def _admit(manager, deployment, gpus, app="A"):
    state = manager.admit(app, gpus)
    client = deployment.connect(app)
    return client, client.adopt_communicator(state.comm_id)


def _events(recovery):
    return [e["event"] for e in recovery.audit]


# ----------------------------------------------------------------------
# transparent recovery
# ----------------------------------------------------------------------
def test_link_down_recovers_and_bytes_survive(
    cluster, deployment, manager, four_gpus, injector
):
    recovery = deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    sends = [client.alloc(g, 256) for g in four_gpus]
    recvs = [client.alloc(g, 256) for g in four_gpus]
    for buf in sends:
        buf.view(np.float32)[:] = 2.0
    big = client.all_reduce(comm, 64 * MB)
    small = client.all_reduce(comm, 256, send=sends, recv=recvs)
    deployment.run()

    assert big.completed and small.completed
    assert big.instance.attempts >= 2
    assert all(np.allclose(r.view(np.float32), 8.0) for r in recvs)
    assert "recovery_succeeded" in _events(recovery)
    assert not deployment.communicator(comm.comm_id).aborted
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_collectives_retried_total").total() >= 1
    assert metrics.histogram("mccs_recovery_seconds").count(kind="link_down") == 1


def test_retried_collective_is_busy_from_final_attempt(
    cluster, deployment, manager, four_gpus, injector
):
    deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    assert op.completed and op.instance.attempts >= 2
    # The root span keeps every attempt's first flow; the trace reads the
    # instance, whose start_time is the final attempt's first flow.
    flow_starts = op.instance.span.event_times(EVENT_FIRST_FLOW_START)
    assert len(flow_starts) == op.instance.attempts
    assert op.instance.start_time == flow_starts[-1] > flow_starts[0]
    busy = deployment.trace(comm.comm_id).busy_intervals()
    assert busy == [(op.instance.start_time, op.instance.end_time)]


def test_recovery_reroutes_around_down_link(
    cluster, deployment, manager, four_gpus, injector
):
    deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    struck = []

    def strike():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        struck.append(links[0])
        injector.fail_link(links[0])

    cluster.sim.call_in(0.004, strike)
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()
    assert op.completed
    # The retried launch must not traverse the dead link: its flows all
    # completed, which is impossible across a down link.
    assert struck and not cluster.sim.link_is_up(struck[0])


# ----------------------------------------------------------------------
# give-up paths: exhaustion and dead ranks
# ----------------------------------------------------------------------
def test_attempt_exhaustion_aborts_with_typed_error(
    cluster, deployment, manager, four_gpus, injector
):
    policy = RecoveryPolicy(max_attempts=2, collective_deadline=None)
    recovery = deployment.enable_recovery(policy, heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    # Both NICs of host 3 die: rank 3 keeps failing at connection setup,
    # but its proxy stays alive so this is not a dead-rank give-up.
    cluster.sim.call_in(0.004, lambda: injector.fail_nic(3, 0))
    cluster.sim.call_in(0.004, lambda: injector.fail_nic(3, 1))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted
    assert isinstance(comm_obj.abort_error, CommunicatorError)
    assert op.instance.aborted and not op.completed
    # The root span ends in the abort (with its error), not a drain.
    events = [name for name, _t, _attrs in op.instance.span.events]
    assert events[-1] == "aborted"
    assert EVENT_LAST_FLOW_END not in events
    assert op.instance.span.events[-1][2]["error"] == str(op.instance.error)
    assert "recovery_gave_up" in _events(recovery)
    # NIC loss is not a crash: the communicator is not reformed.
    assert comm.comm_id not in recovery.reformed
    with pytest.raises(CommunicatorError, match="aborted"):
        client.all_reduce(comm, 1024)


def test_host_crash_aborts_and_reforms_on_survivors(
    cluster, deployment, manager, four_gpus, injector
):
    recovery = deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    client, comm = _admit(manager, deployment, four_gpus)
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted and op.instance.aborted
    assert isinstance(comm_obj.abort_error, CommunicatorError)
    assert "lost rank" in str(comm_obj.abort_error)
    successor = recovery.reformed[comm.comm_id]
    assert len(successor.gpus) == 3  # survivors only
    succ_client_comm = client.adopt_communicator(successor.comm_id)
    op2 = client.all_reduce(succ_client_comm, 1 * MB)
    deployment.run()
    assert op2.completed


def test_crash_blast_radius_spares_co_tenant(
    cluster, deployment, manager, injector
):
    deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    victim_gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    vclient, vcomm = _admit(manager, deployment, victim_gpus, app="victim")
    healthy_gpus = [cluster.hosts[0].gpus[1], cluster.hosts[1].gpus[1]]
    hclient, hcomm = _admit(manager, deployment, healthy_gpus, app="healthy")
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    vop = vclient.all_reduce(vcomm, 64 * MB)
    hop = hclient.all_reduce(hcomm, 16 * MB)
    deployment.run()
    assert vop.instance.aborted
    assert hop.completed
    assert not deployment.communicator(hcomm.comm_id).aborted


# ----------------------------------------------------------------------
# detection: deadlines and heartbeats
# ----------------------------------------------------------------------
def test_collective_deadline_detects_stall(
    cluster, deployment, manager, four_gpus, injector
):
    # Deadline must clear a healthy 64MB AllReduce (~21ms) but trip
    # during the brownout.
    recovery = deployment.enable_recovery(
        RecoveryPolicy(collective_deadline=0.03, max_attempts=8), heartbeat_until=1.0
    )
    client, comm = _admit(manager, deployment, four_gpus)

    def brownout():
        links = sorted(
            {l for f in cluster.sim.active_flows() for l in f.links if "spine" in l}
        )
        # Degraded links stay *up*, so only the deadline can notice.
        injector.degrade_link(links[0], 0.01)
        cluster.sim.call_in(0.06, lambda: injector.restore_capacity(links[0]))

    cluster.sim.call_in(0.004, brownout)
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()
    assert op.completed
    detected = [e for e in recovery.audit if e["event"] == "failure_detected"]
    assert detected and "deadline" in detected[0]["detail"]
    assert (
        deployment.telemetry().metrics.counter("mccs_collective_deadlines_total").total()
        >= 1
    )
    assert "recovery_succeeded" in _events(recovery)


def test_heartbeat_monitor_detects_idle_crash(
    cluster, deployment, manager, four_gpus, injector
):
    policy = RecoveryPolicy(heartbeat_interval=0.01)
    recovery = deployment.enable_recovery(policy, heartbeat_until=0.5)
    client, comm = _admit(manager, deployment, four_gpus)
    # No collective in flight: only the heartbeat can notice this crash.
    cluster.sim.call_in(0.1, lambda: injector.crash_host(2))
    deployment.run()
    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted
    assert (
        deployment.telemetry().metrics.counter("mccs_heartbeats_missed_total").total()
        >= 1
    )
    detected = [e for e in recovery.audit if e["event"] == "failure_detected"]
    assert detected and "heartbeat" in detected[0]["detail"]
    with pytest.raises(CommunicatorError):
        client.all_reduce(comm, 1024)


def test_heartbeat_monitor_is_bounded():
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    deployment.enable_recovery(
        RecoveryPolicy(heartbeat_interval=0.01), heartbeat_until=0.1
    )
    end = deployment.run()
    # The monitor re-arms only inside its bound: the sim terminates.
    assert end <= 0.1 + 0.01 + 1e-9


# ----------------------------------------------------------------------
# satellite 1: reconfiguration barrier timeout
# ----------------------------------------------------------------------
def test_barrier_timeout_names_missing_ranks(
    cluster, deployment, manager, four_gpus, injector
):
    state = manager.admit("A", four_gpus)
    injector.crash_host(2)
    with pytest.raises(ReconfigurationError, match=r"rank\(s\) \[2\]"):
        deployment.reconfigure(state.comm_id, ring=[3, 2, 1, 0], barrier_timeout=0.01)
        deployment.run()
    assert (
        deployment.telemetry().metrics.counter("mccs_reconfig_timeouts_total").total()
        == 1
    )


def test_barrier_timeout_on_failed_handler(
    cluster, deployment, manager, four_gpus, injector
):
    state = manager.admit("A", four_gpus)
    injector.crash_host(1)
    failures = []
    deployment.reconfigure(
        state.comm_id,
        ring=[3, 2, 1, 0],
        barrier_timeout=0.01,
        on_failed=lambda session: failures.append(session.error),
    )
    deployment.run()
    assert len(failures) == 1
    assert isinstance(failures[0], ReconfigurationError)
    assert "[1]" in str(failures[0])


def test_barrier_timeout_requires_positive_value(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    with pytest.raises(ReconfigurationError, match="positive"):
        deployment.reconfigure(state.comm_id, ring=[3, 2, 1, 0], barrier_timeout=-1.0)


def test_reconfigure_without_timeout_still_waits(deployment, manager, four_gpus):
    state = manager.admit("A", four_gpus)
    done = []
    deployment.reconfigure(
        state.comm_id, ring=[3, 2, 1, 0], on_done=lambda s: done.append(s)
    )
    deployment.run()
    assert len(done) == 1


# ----------------------------------------------------------------------
# fault_kind classification
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "error, kind",
    [
        (HostCrashedError("x"), "host_crash"),
        (HeartbeatTimeoutError("x"), "host_crash"),
        (NicFailedError("x"), "nic_fail"),
        (LinkDownError("x"), "link_down"),
        (NoPathError("x"), "link_down"),
        (CollectiveTimeoutError("x"), "timeout"),
        (ReconfigurationError("x"), "reconfig"),
        (ValueError("x"), "other"),
    ],
)
def test_fault_kind_classification(error, kind):
    assert fault_kind(error) == kind


def test_heartbeat_monitor_rejects_bad_interval(deployment):
    from repro.core.recovery import RecoveryManager

    manager = RecoveryManager(deployment)
    with pytest.raises(ValueError):
        HeartbeatMonitor(deployment, manager, interval=0.0, until=1.0)


def test_reform_skipped_when_fewer_than_two_survivors(
    cluster, deployment, manager, injector
):
    """<2 survivors: no successor, but a typed event and an alertable
    counter instead of a silent return."""
    recovery = deployment.enable_recovery(RecoveryPolicy(), heartbeat_until=1.0)
    gpus = [cluster.hosts[0].gpus[0], cluster.hosts[3].gpus[0]]
    client, comm = _admit(manager, deployment, gpus)
    injector.schedule(FaultPlan().host_crash(0.004, 3))
    op = client.all_reduce(comm, 64 * MB)
    deployment.run()

    comm_obj = deployment.communicator(comm.comm_id)
    assert comm_obj.aborted and op.instance.aborted
    assert comm.comm_id not in recovery.reformed
    assert "reform_skipped_unrecoverable" in _events(recovery)
    metrics = deployment.telemetry().metrics
    assert metrics.counter("mccs_reform_skipped_total").value(app="A") == 1
