"""Collectives write the tenant's receive buffers in place.

The service runs each collective's data plane straight into the receive
views of the request.  These tests drive that path through the shim:
NCCL's in-place (aliased) buffer layouts stay byte-exact against the
numpy reference, and a request whose sizes the data plane could not
honour is refused at issue instead of failing mid-run.
"""

import numpy as np
import pytest

from repro.cluster.specs import testbed_cluster
from repro.collectives.reference import reference_outputs
from repro.collectives.ring import RingSchedule
from repro.collectives.types import Collective, ReduceOp
from repro.core.deployment import MccsDeployment
from repro.core.strategy import CollectiveStrategy
from repro.netsim.errors import InvalidBufferError

WORLD = 4
ELEMS = 1030  # not a multiple of the world: uneven ring chunks
ITEM = np.dtype(np.float32).itemsize


def _session(algorithm):
    cluster = testbed_cluster()
    deployment = MccsDeployment(cluster)
    gpus = [cluster.hosts[h].gpus[0] for h in range(WORLD)]
    strategy = CollectiveStrategy(
        ring=RingSchedule((2, 0, 3, 1)), algorithm=algorithm
    )
    state = deployment.create_communicator("app", gpus, strategy=strategy)
    client = deployment.connect("app")
    return deployment, client, client.adopt_communicator(state.comm_id), gpus


def _fill(buffers, elems, seed):
    """Small integer-valued floats, so every reduction order is exact."""
    rng = np.random.default_rng(seed)
    for buf in buffers:
        buf.view(np.float32, 0, elems)[:] = rng.integers(1, 5, size=elems)


def _issue(client, comm, kind, out_bytes, send, recv, op, root):
    call = {
        Collective.ALL_REDUCE: client.all_reduce,
        Collective.ALL_GATHER: client.all_gather,
        Collective.REDUCE_SCATTER: client.reduce_scatter,
        Collective.BROADCAST: client.broadcast,
        Collective.REDUCE: client.reduce,
    }[kind]
    kwargs = {"root": root} if kind in (Collective.BROADCAST, Collective.REDUCE) else {}
    return call(comm, out_bytes, send=send, recv=recv, op=op, **kwargs)


@pytest.mark.parametrize(
    "algorithm, kind",
    [
        ("ring", Collective.ALL_REDUCE),
        ("ring", Collective.BROADCAST),
        ("ring", Collective.REDUCE),
        ("ring", Collective.ALL_GATHER),
        ("ring", Collective.REDUCE_SCATTER),
        ("tree", Collective.ALL_REDUCE),
        ("halving_doubling", Collective.ALL_REDUCE),
    ],
)
@pytest.mark.parametrize("op", [ReduceOp.SUM, ReduceOp.MAX])
def test_aliased_buffers_are_byte_exact(algorithm, kind, op):
    """NCCL's in-place layouts: ``sendbuff == recvbuff`` (AllReduce,
    Broadcast, Reduce), ``sendbuff == recvbuff + rank*block``
    (AllGather) and ``recvbuff == sendbuff + rank*recvcount``
    (ReduceScatter)."""
    deployment, client, comm, gpus = _session(algorithm)
    root = 2
    if kind is Collective.ALL_GATHER:
        block = ELEMS // WORLD
        out_bytes = block * WORLD * ITEM
        bufs = [client.alloc(g, out_bytes) for g in gpus]
        recv = [b.ref(0, out_bytes) for b in bufs]
        send = [b.ref(r * block * ITEM, block * ITEM) for r, b in enumerate(bufs)]
        _fill(bufs, block * WORLD, seed=7)
        inputs = [
            b.view(np.float32, r * block * ITEM, block).copy()
            for r, b in enumerate(bufs)
        ]
    elif kind is Collective.REDUCE_SCATTER:
        block = ELEMS // WORLD
        out_bytes = block * ITEM
        bufs = [client.alloc(g, WORLD * out_bytes) for g in gpus]
        send = [b.ref(0, WORLD * out_bytes) for b in bufs]
        recv = [b.ref(r * out_bytes, out_bytes) for r, b in enumerate(bufs)]
        _fill(bufs, block * WORLD, seed=7)
        inputs = [b.view(np.float32, 0, block * WORLD).copy() for b in bufs]
    else:
        out_bytes = ELEMS * ITEM
        bufs = [client.alloc(g, out_bytes) for g in gpus]
        send = recv = [b.ref(0, out_bytes) for b in bufs]
        _fill(bufs, ELEMS, seed=7)
        inputs = [b.view(np.float32, 0, ELEMS).copy() for b in bufs]
    expected = reference_outputs(kind, inputs, op=op, root=root)

    op_handle = _issue(client, comm, kind, out_bytes, send, recv, op, root)
    deployment.run()

    assert op_handle.completed
    for rank, (ref, want) in enumerate(zip(recv, expected)):
        got = bufs[rank].view(np.float32, ref.offset, ref.nbytes // ITEM)
        np.testing.assert_array_equal(
            got, want, err_msg=f"{algorithm} {kind} rank {rank}"
        )


def test_misaligned_size_is_refused_and_the_communicator_keeps_working():
    """A float32 AllGather of 4104 bytes on 4 ranks needs 1026-byte
    inputs, which is no whole number of elements: refused at issue with
    a typed error, and the communicator still runs the next collective
    byte-exact."""
    deployment, client, comm, gpus = _session("ring")
    sends = [client.alloc(g, 8192) for g in gpus]
    recvs = [client.alloc(g, 8192) for g in gpus]
    with pytest.raises(InvalidBufferError, match="whole number"):
        client.all_gather(
            comm,
            4104,
            send=[s.ref(0, 1026) for s in sends],
            recv=[r.ref(0, 4104) for r in recvs],
        )
    with pytest.raises(InvalidBufferError, match="whole number"):
        # int8 elements divide any byte count, but 4103 output bytes are
        # not four equal 1025-byte blocks.
        client.all_gather(
            comm,
            4103,
            send=[s.ref(0, 1025) for s in sends],
            recv=[r.ref(0, 4103) for r in recvs],
            dtype="int8",
        )
    assert deployment.communicator(comm.comm_id).instances == []

    _fill(sends, 1024, seed=3)
    inputs = [s.view(np.float32, 0, 1024).copy() for s in sends]
    op = client.all_gather(
        comm,
        4096,
        send=[s.ref(0, 1024) for s in sends],
        recv=[r.ref(0, 4096) for r in recvs],
    )
    deployment.run()
    assert op.completed
    want = reference_outputs(Collective.ALL_GATHER, [a[:256] for a in inputs])
    for recv, expected in zip(recvs, want):
        np.testing.assert_array_equal(recv.view(np.float32, 0, 1024), expected)


def test_collective_without_receive_buffers_leaves_sends_alone():
    """With send buffers only there is no output to compute: the data
    plane is skipped and the sends are untouched."""
    deployment, client, comm, gpus = _session("ring")
    sends = [client.alloc(g, ELEMS * ITEM) for g in gpus]
    _fill(sends, ELEMS, seed=5)
    before = [s.view(np.float32).copy() for s in sends]
    op = client.all_reduce(comm, ELEMS * ITEM, send=sends)
    deployment.run()
    assert op.completed
    for buf, was in zip(sends, before):
        np.testing.assert_array_equal(buf.view(np.float32), was)
