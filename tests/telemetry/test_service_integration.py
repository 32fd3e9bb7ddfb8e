"""Telemetry wired through the full service: spans, metrics, traces.

These tests drive real deployments (shim -> frontend -> proxy ->
transport -> netsim) and assert on what lands in the hub — including the
acceptance scenario: the Figure 4 reconfiguration barrier visible as a
span with intact parent/child links.
"""

import pytest

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.errors import CommunicatorError
from repro.netsim.units import MB
from repro.telemetry import (
    EVENT_BARRIER_RESOLVED,
    EVENT_FIRST_FLOW_START,
    EVENT_HELD,
    EVENT_RANK_APPLIED,
    EVENT_RANK_LAUNCH,
    TelemetryHub,
)


def make_env(world=3, **kwargs):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, **kwargs)
    gpus = [cluster.hosts[h % 4].gpus[h // 4] for h in range(world)]
    comm = deployment.create_communicator("app", gpus)
    client = deployment.connect("app")
    handle = client.adopt_communicator(comm.comm_id)
    return cluster, deployment, comm, client, handle


def test_collective_span_tree():
    """One collective = one root span + queued/launch/network children."""
    cluster, deployment, comm, client, handle = make_env()
    op = client.all_reduce(handle, 8 * MB)
    deployment.run()
    hub = deployment.telemetry()

    roots = hub.spans.spans("collective")
    assert len(roots) == 1
    root = roots[0]
    assert root.finished
    assert root.attrs["app"] == "app"
    assert root.attrs["seq"] == 0
    assert root.end == pytest.approx(op.instance.end_time)

    children = hub.spans.children_of(root)
    assert [c.name for c in children] == ["queued", "launch", "network"]
    assert all(c.finished for c in children)
    # Phases tile the root span: queued ends where launch begins, etc.
    assert children[0].end == pytest.approx(children[1].start)
    assert children[1].end == pytest.approx(children[2].start)
    assert children[2].end == pytest.approx(root.end)

    # Point events: every rank launched, flows started and drained.
    assert len(root.event_times(EVENT_RANK_LAUNCH)) == 3
    first_flow = root.event_time(EVENT_FIRST_FLOW_START)
    assert first_flow is not None
    assert first_flow == pytest.approx(children[2].start)


def test_collective_counters_and_ipc_histogram():
    cluster, deployment, comm, client, handle = make_env()
    for _ in range(3):
        client.all_reduce(handle, 8 * MB)
    deployment.run()
    metrics = deployment.telemetry().metrics
    issued = metrics.counters()["mccs_collectives_issued_total"]
    completed = metrics.counters()["mccs_collectives_completed_total"]
    assert issued.value(app="app", kind="all_reduce") == 3
    assert completed.value(app="app", kind="all_reduce") == 3
    durations = metrics.histograms()["mccs_collective_duration_seconds"]
    assert durations.count(app="app") == 3
    assert durations.mean(app="app") > 0
    # The shim->service hop is measured in wall-clock time.
    ipc = metrics.histograms()["mccs_ipc_hop_seconds"]
    assert ipc.count(request="CollectiveRequest") == 3
    assert metrics.counters()["mccs_shim_calls_total"].value(
        app="app", call="all_reduce"
    ) == 3


def test_reconfig_barrier_span_integrity():
    """The acceptance scenario: a reconfig during held collectives leaves
    a root reconfig span with a barrier child, and the held collective's
    span records the hold."""
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    # Ranks 1,2 hear about the reconfig first and hold; rank 0 launches
    # the next collective, forcing a real barrier stall (Figure 4).
    deployment.reconfigure(comm.comm_id, ring=[2, 1, 0], delays=[0.010, 0.0, 0.0])
    deployment.run(until=cluster.sim.now + 0.001)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    hub = deployment.telemetry()

    reconfigs = [s for s in hub.spans.spans("reconfig") if s.parent_id is None]
    assert len(reconfigs) == 1
    root = reconfigs[0]
    assert root.finished
    children = hub.spans.children_of(root)
    assert [c.name for c in children] == ["barrier"]
    barrier = children[0]
    assert barrier.finished
    # The barrier resolves when the AllGather completes, strictly inside
    # the reconfiguration span.
    resolved = root.event_time(EVENT_BARRIER_RESOLVED)
    assert resolved == pytest.approx(barrier.end)
    assert root.start <= barrier.start <= barrier.end <= root.end
    assert len(root.event_times(EVENT_RANK_APPLIED)) == 3

    # The queued second collective recorded the proxy hold.
    second = next(s for s in hub.spans.spans("collective") if s.attrs["seq"] == 1)
    held = second.event_times(EVENT_HELD)
    assert len(held) == 2  # ranks 1 and 2 were holding

    metrics = hub.metrics
    stall = metrics.histograms()["mccs_barrier_stall_seconds"]
    assert stall.count() == 1
    assert metrics.histograms()["mccs_reconfig_duration_seconds"].count() == 1
    assert metrics.counters()["mccs_launches_held_total"].value(
        comm=f"comm{comm.comm_id}"
    ) == 2
    assert metrics.histograms()["mccs_proxy_hold_seconds"].count() == 3


def test_trace_of_destroyed_communicator_raises():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 1 * MB)
    deployment.run()
    assert len(deployment.trace(comm.comm_id).instances) == 1
    client.destroy_communicator(handle)
    with pytest.raises(CommunicatorError):
        deployment.trace(comm.comm_id)


def test_deployment_accepts_external_hub():
    hub = TelemetryHub()
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster, telemetry=hub)
    assert deployment.telemetry() is hub
    assert hub.network is not None  # the sampler attached to cluster.sim


def test_network_telemetry_sees_collective_flows():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    counters = deployment.telemetry().metrics.counters()
    assert counters["mccs_flows_total"].value(job="app") > 0
    assert counters["mccs_flows_completed_total"].value(
        job="app"
    ) == counters["mccs_flows_total"].value(job="app")
    assert counters["mccs_bytes_moved_total"].value(job="app") > 0


def test_prometheus_export_from_live_deployment():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    text = deployment.telemetry().to_prometheus()
    assert '# TYPE mccs_collectives_issued_total counter' in text
    assert 'mccs_collectives_issued_total{app="app",kind="all_reduce"} 1' in text
    assert "# TYPE mccs_collective_duration_seconds histogram" in text


def test_program_cache_stats_flow_into_summary():
    cluster, deployment, comm, client, handle = make_env()
    client.all_reduce(handle, 8 * MB)
    client.all_reduce(handle, 8 * MB)  # second issue hits the cache
    deployment.run()
    hub = deployment.telemetry()
    stats = hub.network.publish_program_cache()
    assert stats is not None
    assert stats["hits"] >= 1
    assert stats["size"] >= 1
    gauges = hub.metrics.gauges()
    assert gauges["mccs_program_cache_hits"].value() == stats["hits"]
    assert gauges["mccs_program_cache_misses"].value() == stats["misses"]
    lines = hub.summary_lines()
    assert any(line.startswith("program_cache.hits = ") for line in lines)


def test_program_cache_stats_aggregate_across_comms():
    cluster, deployment, comm, client, handle = make_env()
    gpus = [cluster.hosts[h].gpus[1] for h in range(3)]
    deployment.create_communicator("other", gpus)
    client.all_reduce(handle, 8 * MB)
    deployment.run()
    stats = deployment.program_cache_stats()
    assert set(stats) == {"size", "hits", "misses", "evictions"}
    per_comm = [c.program_cache.stats() for c in deployment.communicators()]
    assert stats["size"] == sum(s["size"] for s in per_comm)
