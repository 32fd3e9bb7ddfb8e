"""Unit behavior of the gateway's robustness primitives."""

import random

import pytest

from repro.core.recovery import RetryPolicy
from repro.errors import PolicyError
from repro.service import (
    BreakerPolicy,
    BreakerState,
    BrownoutController,
    BrownoutPolicy,
    CircuitBreaker,
    TokenBucket,
)


# -- token bucket -------------------------------------------------------------
def test_bucket_burst_then_refill():
    bucket = TokenBucket(rate=10.0, burst=3.0, now=0.0)
    assert all(bucket.try_take(0.0) for _ in range(3))
    assert not bucket.try_take(0.0)
    # 0.1 s refills one token at 10/s.
    assert bucket.try_take(0.1)
    assert not bucket.try_take(0.1)


def test_bucket_retry_after_is_exact():
    bucket = TokenBucket(rate=4.0, burst=1.0, now=0.0)
    assert bucket.try_take(0.0)
    assert bucket.retry_after(0.0) == pytest.approx(0.25)
    assert bucket.try_take(0.25)


def test_bucket_never_exceeds_burst():
    bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
    bucket.try_take(0.0)
    bucket._refill(10.0)
    assert bucket.tokens == pytest.approx(2.0)


def test_bucket_rejects_bad_policy():
    with pytest.raises(PolicyError):
        TokenBucket(rate=0.0, burst=1.0)
    with pytest.raises(PolicyError):
        TokenBucket(rate=1.0, burst=-1.0)


# -- retry policy -------------------------------------------------------------
def test_retry_backoff_is_capped():
    policy = RetryPolicy(
        backoff_base=0.01, backoff_factor=2.0, backoff_cap=0.05, jitter=0.0
    )
    rng = random.Random(0)
    delays = [policy.delay(attempt, rng) for attempt in range(6)]
    assert delays[0] == pytest.approx(0.01)
    assert delays[1] == pytest.approx(0.02)
    assert max(delays) == pytest.approx(0.05)
    assert delays == sorted(delays)


def test_retry_jitter_stays_bounded():
    policy = RetryPolicy(backoff_base=0.01, jitter=0.5)
    rng = random.Random(7)
    for attempt in range(4):
        base = min(0.01 * 2.0**attempt, policy.backoff_cap)
        d = policy.delay(attempt, rng)
        assert base <= d <= base * 1.5


def test_shim_and_gateway_retry_defaults():
    """One RetryPolicy: the shim allows 8 retries, the gateway 6, on the
    same capped-exponential curve recovery also uses (un-jittered)."""
    from repro.cluster.specs import testbed_cluster
    from repro.core.deployment import MccsDeployment
    from repro.core.recovery import RecoveryPolicy, capped_backoff
    from repro.service import GatewayPolicy

    shim = MccsDeployment(testbed_cluster()).connect("A").retry
    assert shim == RetryPolicy() == RetryPolicy(
        max_retries=8, backoff_base=0.002, backoff_factor=2.0,
        backoff_cap=0.05, jitter=0.5,
    )
    assert GatewayPolicy().retry == RetryPolicy(max_retries=6)
    recovery = RecoveryPolicy()
    for attempt in range(10):
        assert capped_backoff(
            attempt,
            recovery.backoff_base,
            recovery.backoff_factor,
            recovery.backoff_cap,
        ) == min(0.005 * 2.0**attempt, 0.1)


# -- circuit breaker ----------------------------------------------------------
def _tripped_breaker(now=0.0):
    breaker = CircuitBreaker(
        BreakerPolicy(window=4, min_samples=2, failure_threshold=0.5,
                      cooldown=1.0, half_open_probes=1)
    )
    breaker.record_failure(now)
    breaker.record_failure(now)
    return breaker


def test_breaker_trips_on_failure_fraction():
    breaker = _tripped_breaker()
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 1
    assert not breaker.allow(0.5)


def test_breaker_half_open_probe_closes_on_success():
    breaker = _tripped_breaker(now=0.0)
    assert breaker.allow(1.0)  # cooldown elapsed: one probe admitted
    assert breaker.state is BreakerState.HALF_OPEN
    assert not breaker.allow(1.0)  # only one concurrent probe
    breaker.record_success(1.1)
    assert breaker.state is BreakerState.CLOSED
    assert breaker.allow(1.1)


def test_breaker_half_open_probe_reopens_on_failure():
    breaker = _tripped_breaker(now=0.0)
    assert breaker.allow(1.0)
    breaker.record_failure(1.05)
    assert breaker.state is BreakerState.OPEN
    assert breaker.trips == 2
    assert not breaker.allow(1.5)  # new cooldown from the re-trip


def test_breaker_abandon_releases_probe_slot_without_outcome():
    breaker = _tripped_breaker(now=0.0)
    assert breaker.allow(1.0)
    breaker.abandon(1.0)
    # The slot is free again and the breaker did not close or re-trip.
    assert breaker.state is BreakerState.HALF_OPEN
    assert breaker.trips == 1
    assert breaker.allow(1.0)


def test_breaker_successes_keep_it_closed():
    breaker = CircuitBreaker(BreakerPolicy(window=4, min_samples=2))
    for i in range(10):
        breaker.record_success(i * 0.1)
        assert breaker.state is BreakerState.CLOSED


# -- brownout -----------------------------------------------------------------
def test_brownout_policy_validation():
    with pytest.raises(PolicyError):
        BrownoutPolicy(watermarks=(0.9, 0.5))
    with pytest.raises(PolicyError):
        # As many watermarks as classes would allow shedding the top class.
        BrownoutPolicy(watermarks=(0.3, 0.6, 0.9))


def test_brownout_levels_and_shedding_order():
    ctl = BrownoutController(policy=BrownoutPolicy(
        watermarks=(0.5, 0.8), hysteresis=0.1,
        priority=("high", "normal", "low"),
    ))
    assert ctl.update(0.2, now=0.0) == 0
    assert not ctl.sheds("low")
    assert ctl.update(0.55, now=1.0) == 1
    assert ctl.sheds("low") and not ctl.sheds("normal") and not ctl.sheds("high")
    assert ctl.update(0.85, now=2.0) == 2
    assert ctl.sheds("normal") and not ctl.sheds("high")
    # Unknown classes rank below everything listed.
    assert ctl.sheds("mystery")


def test_brownout_hysteresis_blocks_flapping():
    ctl = BrownoutController(policy=BrownoutPolicy(
        watermarks=(0.5, 0.8), hysteresis=0.1,
    ))
    ctl.update(0.55, now=0.0)
    # Dropping just below the watermark is not enough to release.
    assert ctl.update(0.45, now=1.0) == 1
    assert ctl.update(0.39, now=2.0) == 0
    assert [lvl for _, _, lvl in ctl.transitions] == [1, 0]
