"""Figure 11 — large-scale simulation: MCCS speedup over random rings.

The §6.5 experiment: a 768-GPU cluster (16 spines, 24 leaves, 4 hosts per
leaf, 8 GPUs + 8 NICs per host, 200 Gbps everywhere, 2:1 oversubscribed)
runs 50 ResNet-50 data-parallel jobs (100 MB of gradients) of 16 or 32
GPUs with equal probability, arriving Poisson with a 200 ms mean gap,
under random or compact placement.  Three solutions are compared:

* **random** — random (host-major) ring per job, ECMP routing;
* **OR** — provider-optimized locality rings, ECMP routing;
* **OR+FFA** — locality rings plus fair flow assignment, recomputed only
  when a job joins or exits (this is MCCS).

We report each job's total AllReduce completion time and the CDF of its
speedup relative to the random-ring solution.  Paper means: random
placement 2.63x (OR) and 3.27x (OR+FFA); compact placement 3.28x and
3.43x, with FFA adding little under compact placement because jobs rarely
span more than two racks.

Placements and arrival times are precomputed once (with a
solution-independent nominal duration model) and replayed identically
under every solution, so per-job speedups are paired — which is what the
paper's per-job CDF requires.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

from ..cluster.placement import ClusterAllocator
from ..cluster.specs import large_cluster
from ..core.controller import CentralManager
from ..core.deployment import MccsDeployment
from ..core.strategy import CollectiveStrategy
from ..collectives.ring import RingSchedule
from ..workloads.arrivals import poisson_arrivals
from ..workloads.generator import MccsIssuer, TrafficGenerator
from ..workloads.models import resnet50
from ..workloads.traces import data_parallel_trace
from .report import Stat, ascii_cdf, cdf_points, print_table

SOLUTIONS = ("random", "or", "or+ffa")


@dataclass(frozen=True)
class PlacedJob:
    """One job with its solution-independent start time and GPUs."""

    job_id: str
    num_gpus: int
    start_time: float
    gpu_ids: Tuple[int, ...]


@dataclass
class SimulationOutcome:
    """Per-job AllReduce completion times for each solution."""

    placement: str
    jobs: List[PlacedJob]
    comm_time: Dict[str, Dict[str, float]]  # solution -> job -> seconds

    def speedups(self, solution: str) -> List[float]:
        base = self.comm_time["random"]
        other = self.comm_time[solution]
        return [base[j.job_id] / other[j.job_id] for j in self.jobs]


def precompute_placements(
    *,
    placement: str,
    num_jobs: int,
    iterations: int,
    seed: int,
) -> List[PlacedJob]:
    """Fix job arrival times and GPU sets independently of the solution.

    A nominal per-job duration (compute plus uncongested communication)
    drives the free-pool evolution; arrivals that cannot be served are
    delayed until enough GPUs free up, FIFO.
    """
    cluster = large_cluster()
    allocator = ClusterAllocator(cluster, seed=seed)
    arrivals = poisson_arrivals(num_jobs, seed=seed)
    profile = resnet50()
    nominal = iterations * 0.01
    releases: List[Tuple[float, str]] = []
    placed: List[PlacedJob] = []
    for spec in arrivals:
        start = spec.arrival_time
        # serve pending releases, delaying the job if the pool is short
        pending = sorted(releases)
        while True:
            while pending and pending[0][0] <= start:
                _, done_id = pending.pop(0)
                allocator.release(done_id)
            if allocator.free_count >= spec.num_gpus:
                break
            if not pending:
                raise RuntimeError("cluster can never fit this job")
            start = max(start, pending[0][0])
        releases = pending
        gpus = allocator.place(spec.job_id, spec.num_gpus, placement)
        releases.append((start + nominal, spec.job_id))
        placed.append(
            PlacedJob(
                job_id=spec.job_id,
                num_gpus=spec.num_gpus,
                start_time=start,
                gpu_ids=tuple(g.global_id for g in gpus),
            )
        )
    return placed


def _run_solution(
    solution: str,
    jobs: Sequence[PlacedJob],
    *,
    iterations: int,
    channels: int,
    seed: int,
    segments: int = 5,
) -> Dict[str, float]:
    """Replay all jobs under one solution; per-job AllReduce time."""
    cluster = large_cluster()
    deployment = MccsDeployment(cluster, ecmp_seed=seed * 6151)
    manager = CentralManager(deployment)
    rng = random.Random(seed * 31 + 7)
    # The paper's simulator measures AllReduce completion under per-flow
    # fairness with jobs communicating continuously.  We replay each job's
    # `iterations` x 100 MB of gradient traffic as `segments` back-to-back
    # AllReduces (fluid-equivalent, but with far fewer simulator events),
    # with no exposed compute (DDP overlaps it with the backward pass).
    per_segment = max(iterations // segments, 1)
    profile = replace(
        resnet50(),
        bucket_bytes=0,
        compute_per_iteration=0.0,
        input_bytes_per_iteration=0,
        param_bytes=per_segment * resnet50().param_bytes,
    )
    comm_time: Dict[str, float] = {}
    active = {"count": 0}

    def reassign_routes() -> None:
        if solution == "or+ffa":
            manager.apply_flow_policy("ffa")

    def launch(job: PlacedJob) -> None:
        gpus = [cluster.gpu(i) for i in job.gpu_ids]
        if solution == "random":
            # "random ring selection": ranks assigned with no topology
            # knowledge at all — a uniformly random GPU permutation, which
            # destroys both rack locality and intra-host adjacency.
            order = list(range(len(gpus)))
            rng.shuffle(order)
            strategy = CollectiveStrategy(
                ring=RingSchedule(tuple(order)), channels=channels
            )
            state = deployment.create_communicator(
                job.job_id, gpus, channels=channels, strategy=strategy
            )
        else:
            state = manager.admit(job.job_id, gpus, channels=channels)
        client = deployment.connect(job.job_id)
        comm = client.adopt_communicator(state.comm_id)
        trace = data_parallel_trace(profile, segments)
        stream = client.create_stream(gpus[0])
        generator = TrafficGenerator(
            cluster.sim, MccsIssuer(client, comm), trace, stream, name=job.job_id
        )
        active["count"] += 1
        reassign_routes()  # rescheduling on job join

        def finished(gen: TrafficGenerator, now: float) -> None:
            comm_time[job.job_id] = sum(
                i.duration() for i in deployment.trace(state.comm_id).instances
                if i.end_time is not None
            )
            client.destroy_communicator(comm)
            active["count"] -= 1
            reassign_routes()  # rescheduling on job exit

        generator.start(at=cluster.sim.now, on_finish=finished)

    for job in jobs:
        cluster.sim.schedule(job.start_time, lambda job=job: launch(job))
    cluster.sim.run()
    missing = [j.job_id for j in jobs if j.job_id not in comm_time]
    if missing:
        raise RuntimeError(f"jobs never finished: {missing[:5]}")
    return comm_time


def run_fig11(
    *,
    placement: str = "random",
    num_jobs: int = 50,
    iterations: int = 200,
    channels: int = 8,
    seed: int = 0,
    segments: int = 5,
) -> SimulationOutcome:
    """One full experiment at one placement policy."""
    jobs = precompute_placements(
        placement=placement, num_jobs=num_jobs, iterations=iterations, seed=seed
    )
    comm_time = {
        solution: _run_solution(
            solution,
            jobs,
            iterations=iterations,
            channels=channels,
            seed=seed,
            segments=segments,
        )
        for solution in SOLUTIONS
    }
    return SimulationOutcome(placement=placement, jobs=jobs, comm_time=comm_time)


def run_fig11_repeated(
    *,
    placements: Sequence[str] = ("random", "compact"),
    repetitions: int = 5,
    num_jobs: int = 50,
    iterations: int = 200,
    channels: int = 8,
) -> Dict[str, Dict[str, List[float]]]:
    """The paper's protocol: 5 repetitions, average per-job speedups.

    Returns ``{placement: {solution: [per-job speedups pooled over reps]}}``.
    """
    pooled: Dict[str, Dict[str, List[float]]] = {
        p: {s: [] for s in ("or", "or+ffa")} for p in placements
    }
    for placement in placements:
        for rep in range(repetitions):
            outcome = run_fig11(
                placement=placement,
                num_jobs=num_jobs,
                iterations=iterations,
                channels=channels,
                seed=rep,
            )
            for solution in ("or", "or+ffa"):
                pooled[placement][solution].extend(outcome.speedups(solution))
    return pooled


def main(
    repetitions: int = 2, num_jobs: int = 50, iterations: int = 200, channels: int = 8
) -> None:
    pooled = run_fig11_repeated(
        repetitions=repetitions,
        num_jobs=num_jobs,
        iterations=iterations,
        channels=channels,
    )
    for placement, by_solution in pooled.items():
        rows = []
        for solution in ("or", "or+ffa"):
            samples = by_solution[solution]
            stat = Stat.of(samples)
            cdf = cdf_points(samples)
            median = cdf[len(cdf) // 2][0]
            p90 = cdf[int(len(cdf) * 0.9) - 1][0]
            rows.append(
                [
                    solution.upper(),
                    f"{stat.mean:.2f}x",
                    f"{median:.2f}x",
                    f"{p90:.2f}x",
                ]
            )
        print_table(
            ["Solution", "Mean speedup", "Median", "P90"],
            rows,
            title=(
                "Figure 11 — AllReduce speedup vs random ring, "
                f"{placement} placement"
            ),
        )
        print(ascii_cdf({s.upper(): by_solution[s] for s in ("or", "or+ffa")}))
        print()


if __name__ == "__main__":
    main()
