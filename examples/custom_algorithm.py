#!/usr/bin/env python
"""Provider-proprietary collective algorithms (the §4.2 extension point).

"MCCS enables the incorporation of various collective strategies
optimized for specific topologies ... or even proprietary strategies
developed in-house by the provider" — without changing tenant code.

This example registers a toy proprietary algorithm — a two-phase
hierarchical AllReduce (reduce to one leader per host over NVLink, ring
the leaders across the fabric, fan back out) — assigns it to a tenant's
communicator at admission time, and later reconfigures the live
communicator between algorithm families.  The tenant's code never
changes and never learns which algorithm ran.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import CentralManager, MccsDeployment, RingSchedule, testbed_cluster
from repro.collectives.types import Collective, ReduceOp, reduce_many
from repro.core.algorithms import (
    CollectiveAlgorithm,
    RankTransfer,
    RingAlgorithm,
    register_algorithm,
)
from repro.core.strategy import CollectiveStrategy
from repro.netsim.units import MB

class HierarchicalAllReduce(CollectiveAlgorithm):
    """Reduce intra-host first, ring host leaders, broadcast back."""

    name = "hierarchical"

    def _leader(self, ctx, rank):
        # the lowest rank on each host leads; hosts are pairs (0,1), (2,3)...
        return rank - (rank % 2)

    def rank_transfers(self, ctx):
        if ctx.kind is not Collective.ALL_REDUCE:
            return RingAlgorithm().rank_transfers(ctx)
        transfers = []
        leader = self._leader(ctx, ctx.rank)
        leaders = sorted({self._leader(ctx, r) for r in range(ctx.world)})
        if ctx.rank != leader:
            # phase 1 up + phase 3 down ride the intra-host channel
            transfers.append(RankTransfer(leader, ctx.out_bytes, 0))
        else:
            idx = leaders.index(leader)
            nxt = leaders[(idx + 1) % len(leaders)]
            per_edge = 2 * (len(leaders) - 1) / len(leaders) * ctx.out_bytes
            for channel in range(ctx.channels):
                transfers.append(RankTransfer(nxt, per_edge / ctx.channels, channel))
            for r in range(ctx.world):
                if r != leader and self._leader(ctx, r) == leader:
                    transfers.append(RankTransfer(r, ctx.out_bytes, 0))
        return transfers

    def steps(self, kind, world):
        return 2 + world // 2  # up, leader ring, down

    def run_data(self, ctx, inputs, outputs, op):
        # The data plane writes every rank's result into the caller's
        # ``outputs`` (the tenant's receive buffers) and returns nothing.
        if ctx.kind is not Collective.ALL_REDUCE:
            return RingAlgorithm().run_data(ctx, inputs, outputs, op)
        # Fold into rank 0's output, then fan it out.  An output may be
        # its own rank's input (in-place AllReduce); every input is read
        # before any other rank's output is written, so that is safe.
        total = reduce_many(op, list(inputs), out=outputs[0])
        for out in outputs[1:]:
            out[:] = total

def main() -> None:
    register_algorithm(HierarchicalAllReduce(), replace=True)

    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    manager = CentralManager(deployment)

    gpus = [g for h in range(4) for g in cluster.hosts[h].gpus]
    strategy = CollectiveStrategy(
        ring=RingSchedule(tuple(range(8))), channels=2, algorithm="hierarchical"
    )
    state = deployment.create_communicator("tenant", gpus, strategy=strategy)
    client = deployment.connect("tenant")
    comm = client.adopt_communicator(state.comm_id)

    def measure(label):
        done = []
        client.all_reduce(comm, 128 * MB, on_complete=lambda i, t: done.append(i.duration()))
        deployment.run()
        print(f"{label:>14}: 128MB AllReduce in {done[0] * 1e3:6.2f} ms "
              f"({128 * MB / done[0] / 1e9:5.2f} GB/s)")

    # Real bytes: the tenant's receive buffers hold the sum afterwards.
    kb = 4096
    sends = [client.alloc(g, kb) for g in gpus]
    recvs = [client.alloc(g, kb) for g in gpus]
    for rank, buf in enumerate(sends):
        buf.view(np.float32)[:] = rank
    client.all_reduce(comm, kb, send=sends, recv=recvs)
    deployment.run()
    assert all((r.view(np.float32) == sum(range(len(gpus)))).all() for r in recvs)
    print(f"hierarchical AllReduce of {kb} B into the receive buffers: exact")

    measure("hierarchical")
    # The provider reconfigures the live communicator to plain rings...
    deployment.reconfigure(state.comm_id, algorithm="ring")
    measure("ring")
    # ...and to double binary trees.
    deployment.reconfigure(state.comm_id, algorithm="tree")
    measure("tree")
    print(f"\nstrategy history: versions {sorted(state.strategy_history)} — "
          "the tenant never noticed.")

if __name__ == "__main__":
    main()
