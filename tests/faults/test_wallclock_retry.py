"""The retry backoff schedule, as any clock would pay it.

A live worker runs the same ``ServiceBackend`` resilience path as the
DES, so the schedule is drawn the same way whatever the clock.  These
tests pin the two properties that depends on:

* determinism — the jitter stream is seeded, so two runs with the same
  root seed draw the identical backoff sequence;
* boundedness — no single backoff exceeds ``max_backoff * (1 + jitter)``,
  so the worst-case schedule fits the per-op deadline.
"""

import numpy as np
import pytest

from repro.config import ResilienceConfig, SystemConfig
from repro.faults.injector import FAULT_ERROR, FAULT_TIMEOUT
from repro.faults.retry import backoff_ms, fault_cost_ms
from repro.simulation.rng import RngRegistry


def policy_and_stream(seed):
    config = SystemConfig().with_seed(seed).validate()
    policy = config.resilience
    # Streams are derived by name from the root seed.
    return policy, RngRegistry(config.seed).stream("live-dispatch")


def test_backoff_sequence_identical_across_planes():
    # Two independently constructed (policy, stream) pairs — think "one
    # sim run, one live run" — must draw the same jittered schedule.
    policy_a, stream_a = policy_and_stream(seed=77)
    policy_b, stream_b = policy_and_stream(seed=77)
    schedule_a = [
        backoff_ms(policy_a, attempt, stream_a)
        for attempt in range(1, 1 + 3 * policy_a.max_attempts)
    ]
    schedule_b = [
        backoff_ms(policy_b, attempt, stream_b)
        for attempt in range(1, 1 + 3 * policy_b.max_attempts)
    ]
    assert schedule_a == schedule_b


def test_backoff_sequence_differs_across_seeds():
    policy_a, stream_a = policy_and_stream(seed=77)
    policy_b, stream_b = policy_and_stream(seed=78)
    schedule_a = [backoff_ms(policy_a, n, stream_a) for n in range(1, 9)]
    schedule_b = [backoff_ms(policy_b, n, stream_b) for n in range(1, 9)]
    assert schedule_a != schedule_b


def test_backoff_never_exceeds_jittered_cap():
    # An unbounded draw would stall whoever pays the backoff.  Every
    # attempt — far past the point the exponential curve saturates —
    # stays under the jittered cap.
    policy = ResilienceConfig(
        max_attempts=5, base_backoff_ms=1.0, backoff_multiplier=3.0,
        max_backoff_ms=8.0, jitter_fraction=0.2,
    )
    rng = np.random.default_rng(0)
    cap = policy.max_backoff_ms * (1.0 + policy.jitter_fraction)
    for attempt in range(1, 64):
        assert backoff_ms(policy, attempt, rng) <= cap


def test_zero_jitter_is_exact_exponential():
    policy = ResilienceConfig(
        base_backoff_ms=2.0, backoff_multiplier=2.0,
        max_backoff_ms=100.0, jitter_fraction=0.0,
    )
    rng = np.random.default_rng(0)
    assert [backoff_ms(policy, n, rng) for n in (1, 2, 3, 4)] == [
        2.0, 4.0, 8.0, 16.0,
    ]


def test_attempt_is_one_based():
    with pytest.raises(ValueError):
        backoff_ms(ResilienceConfig(), 0, np.random.default_rng(0))


def test_worst_case_sleep_fits_op_deadline():
    # The default config's full retry walk (every attempt times out,
    # every backoff draws maximal jitter) must fit inside the op
    # deadline — otherwise an op would blow its deadline by construction
    # rather than by observed slowness.
    policy = SystemConfig().validate().resilience
    worst = 0.0
    for attempt in range(1, policy.max_attempts + 1):
        worst += policy.attempt_timeout_ms
        if attempt < policy.max_attempts:
            base = min(
                policy.max_backoff_ms,
                policy.base_backoff_ms
                * policy.backoff_multiplier ** (attempt - 1),
            )
            worst += base * (1.0 + policy.jitter_fraction)
    assert worst <= policy.op_deadline_ms


def test_fault_cost_distinguishes_timeout_from_error():
    policy = ResilienceConfig(attempt_timeout_ms=10.0, error_latency_ms=1.0)
    assert fault_cost_ms(policy, FAULT_TIMEOUT) == 10.0
    assert fault_cost_ms(policy, FAULT_ERROR) == 1.0
