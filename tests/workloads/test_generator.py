"""Traffic generator tests: trace replay through both libraries."""

import pytest

from repro.baselines.nccl import NcclCommunicator
from repro.cluster.specs import testbed_cluster
from repro.core.controller import CentralManager
from repro.core.deployment import MccsDeployment
from repro.workloads.generator import MccsIssuer, NcclIssuer, TrafficGenerator
from repro.workloads.models import ModelProfile
from repro.workloads.traces import data_parallel_trace


def small_profile(compute=0.01, buckets=2):
    return ModelProfile(
        name="tiny",
        param_bytes=buckets * 4 * 1024 * 1024,
        bucket_bytes=4 * 1024 * 1024,
        compute_per_iteration=compute,
    )


def test_replay_through_nccl():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    trace = data_parallel_trace(small_profile(), 3)
    stream = gpus[0].create_stream()
    gen = TrafficGenerator(cluster.sim, NcclIssuer(comm), trace, stream)
    finished = []
    gen.start(on_finish=lambda g, t: finished.append(t))
    cluster.sim.run()
    assert gen.stats.finished
    assert finished == [gen.stats.finish_time]
    assert len(gen.stats.iteration_times) == 3
    assert gen.stats.collectives_issued == trace.collective_count()


def test_replay_through_mccs():
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    state = manager.admit("A", gpus)
    client = deployment.connect("A")
    comm = client.adopt_communicator(state.comm_id)
    trace = data_parallel_trace(small_profile(), 2)
    stream = client.create_stream(gpus[0])
    gen = TrafficGenerator(cluster.sim, MccsIssuer(client, comm), trace, stream)
    gen.start()
    deployment.run()
    assert gen.stats.finished
    assert len(deployment.trace(state.comm_id).instances) == trace.collective_count()


def test_jct_accounts_compute_and_comm():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    trace = data_parallel_trace(small_profile(compute=0.05), 2)
    stream = gpus[0].create_stream()
    gen = TrafficGenerator(cluster.sim, NcclIssuer(comm), trace, stream)
    gen.start()
    cluster.sim.run()
    assert gen.stats.jct() >= trace.total_compute_seconds()


def test_deferred_start():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    trace = data_parallel_trace(small_profile(), 1)
    stream = gpus[0].create_stream()
    gen = TrafficGenerator(cluster.sim, NcclIssuer(comm), trace, stream)
    gen.start(at=0.5)
    cluster.sim.run()
    assert gen.stats.start_time == pytest.approx(0.5)
    assert gen.stats.finish_time > 0.5


def test_iteration_durations_and_throughput():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    trace = data_parallel_trace(small_profile(), 4)
    stream = gpus[0].create_stream()
    gen = TrafficGenerator(cluster.sim, NcclIssuer(comm), trace, stream)
    gen.start()
    cluster.sim.run()
    durations = gen.stats.iteration_durations()
    assert len(durations) == 4
    assert all(d > 0 for d in durations)
    timeline = gen.stats.throughput_timeline()
    assert len(timeline) == 4
    assert all(tp > 0 for _, tp in timeline)


def test_jct_before_finish_raises():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    trace = data_parallel_trace(small_profile(), 1)
    gen = TrafficGenerator(
        cluster.sim, NcclIssuer(comm), trace, gpus[0].create_stream()
    )
    with pytest.raises(ValueError):
        gen.stats.jct()


def test_two_generators_share_network():
    """Two tenants replaying concurrently both finish; contention slows
    them versus running alone."""
    cluster = testbed_cluster()
    trace = data_parallel_trace(small_profile(compute=0.0), 3)

    def run_pair():
        cl = testbed_cluster()
        comms = [
            NcclCommunicator(cl, [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]], job_id="A"),
            NcclCommunicator(cl, [cl.hosts[0].gpus[1], cl.hosts[2].gpus[1]], job_id="B"),
        ]
        gens = []
        for comm in comms:
            stream = comm.gpus[0].create_stream()
            gen = TrafficGenerator(cl.sim, NcclIssuer(comm), trace, stream)
            gen.start()
            gens.append(gen)
        cl.sim.run()
        return [g.stats.jct() for g in gens]

    def run_single():
        cl = testbed_cluster()
        comm = NcclCommunicator(cl, [cl.hosts[0].gpus[0], cl.hosts[2].gpus[0]])
        gen = TrafficGenerator(
            cl.sim, NcclIssuer(comm), trace, comm.gpus[0].create_stream()
        )
        gen.start()
        cl.sim.run()
        return gen.stats.jct()

    pair = run_pair()
    solo = run_single()
    assert all(j >= solo * 0.99 for j in pair)


def test_generator_accounts_compute_and_memcpy():
    cluster = testbed_cluster()
    gpus = [cluster.hosts[h].gpus[0] for h in range(4)]
    comm = NcclCommunicator(cluster, gpus)
    profile = small_profile(compute=0.02)
    from dataclasses import replace

    profile = replace(profile, input_bytes_per_iteration=24_000_000)
    trace = data_parallel_trace(profile, 2)
    gen = TrafficGenerator(
        cluster.sim, NcclIssuer(comm), trace, gpus[0].create_stream(),
        pcie_gBps=12.0,
    )
    gen.start()
    cluster.sim.run()
    assert gen.stats.compute_seconds == pytest.approx(2 * 0.02)
    assert gen.stats.memcpy_seconds == pytest.approx(2 * 24_000_000 / 12e9)
    assert gen.stats.jct() >= gen.stats.compute_seconds + gen.stats.memcpy_seconds
