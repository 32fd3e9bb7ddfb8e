"""Property tests: gateway invariants under arbitrary interleavings.

Hypothesis drives random programs of tenant traffic, communicator
aborts (breaker trips), gateway crashes, and restarts against a fresh
deployment, and checks the invariants the fleet experiment relies on:

* every request is answered exactly once (no lost or duplicate settles),
* no request is both rejected and executed,
* collectives that were admitted (HTTP 200) are byte-exact.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.cluster.specs import testbed_cluster
from repro.core.deployment import MccsDeployment
from repro.core.recovery import RetryPolicy
from repro.errors import CommunicatorError
from repro.service import (
    BreakerPolicy,
    BrownoutPolicy,
    GatewayClient,
    GatewayPolicy,
    InProcessTransport,
    ServiceGateway,
    TenantQuota,
)

TENANTS = ("t-high", "t-low")
NBYTES = 256

_op = st.one_of(
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("collective"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("step"), st.just(0)),
    st.tuples(st.just("abort"), st.integers(0, len(TENANTS) - 1)),
    st.tuples(st.just("crash"), st.just(0)),
    st.tuples(st.just("restart"), st.just(0)),
)


def _build():
    deployment = MccsDeployment(testbed_cluster())
    gateway = ServiceGateway(
        deployment,
        GatewayPolicy(
            queue_capacity=4,
            max_inflight=2,
            default_deadline=0.08,
            retry=RetryPolicy(max_retries=2, backoff_base=0.001,
                                     backoff_cap=0.004),
            breaker=BreakerPolicy(window=4, min_samples=2, cooldown=0.05),
            brownout=BrownoutPolicy(watermarks=(0.5, 0.9), hysteresis=0.1),
        ),
    )
    transport = InProcessTransport(gateway)
    tenants = []
    for i, (tid, qos) in enumerate(zip(TENANTS, ("high", "low"))):
        account = gateway.register_tenant(
            tid, TenantQuota(qos_class=qos, rate=400.0, burst=8.0,
                             max_queued=4, max_inflight=2)
        )
        client = GatewayClient(transport, api_key=account.key.raw)
        gpus = [deployment.cluster.hosts[i].gpus[j].global_id for j in (0, 1)]
        comm_call = client.create_comm(gpus)
        fill = float(i + 2)
        send_calls = [client.alloc(g, NBYTES, fill=fill) for g in gpus]
        recv_calls = [client.alloc(g, NBYTES) for g in gpus]
        deployment.run()
        assert comm_call.ok, comm_call.response.error
        tenants.append({
            "id": tid,
            "client": client,
            "comm": comm_call.response.body["comm_id"],
            "sends": [c.response.body["buffer_id"] for c in send_calls],
            "recvs": [c.response.body["buffer_id"] for c in recv_calls],
            "fill": fill,
            "aborted": False,
        })
    return deployment, gateway, tenants


@settings(max_examples=20, deadline=None)
@given(program=st.lists(_op, min_size=1, max_size=24))
def test_no_request_lost_duplicated_or_corrupted(program):
    deployment, gateway, tenants = _build()
    calls = []
    for op, idx in program:
        tenant = tenants[idx]
        if op == "collective":
            calls.append((tenant, tenant["client"].collective(
                tenant["comm"], NBYTES,
                send_buffers=tenant["sends"],
                recv_buffers=tenant["recvs"],
                ttl=0.08,
            )))
        elif op == "step":
            deployment.run(until=deployment.sim.now + 0.002)
        elif op == "abort" and not tenant["aborted"]:
            deployment.communicator(tenant["comm"]).abort(
                CommunicatorError("chaos abort")
            )
            tenant["aborted"] = True
        elif op == "crash":
            gateway.crash()
        elif op == "restart":
            gateway.restart()
    gateway.restart()  # no-op if alive; drains survivors otherwise
    deployment.run()

    # Every request answered exactly once.
    assert all(call.done for _, call in calls)
    # No request both rejected and executed.
    assert not (gateway.rejected_ids & gateway.executed_ids)
    # Admitted (200) collectives are byte-exact: each rank's reduction
    # saw both contributions of the tenant's fill value.
    for tenant in tenants:
        oks = [c for t, c in calls if t is tenant and c.ok]
        if not oks or tenant["aborted"]:
            continue
        client = gateway.session_of(tenant["id"]).client
        for buffer_id in tenant["recvs"]:
            buf = client.buffers.get(buffer_id)
            if buf is None:  # session rebuilt after a crash: re-adopt
                buf = client.adopt_buffer(buffer_id)
            assert np.allclose(buf.view(np.float32), tenant["fill"] * 2)
    # Accounting closes: answered = executed + rejected for this run.
    statuses = [c.response.status for _, c in calls]
    assert all(s in (200, 429, 500, 503, 504) for s in statuses)
