"""Unit tests for the retry/backoff policy."""

import numpy as np
import pytest

from repro.config import ResilienceConfig, SystemConfig
from repro.errors import ConfigError
from repro.faults.injector import FAULT_ERROR, FAULT_TIMEOUT
from repro.faults.retry import backoff_ms, fault_cost_ms
from repro.runtime.services import ServiceBackend


def no_jitter(**kwargs):
    return ResilienceConfig(jitter_fraction=0.0, **kwargs)


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = no_jitter(base_backoff_ms=1.0, backoff_multiplier=2.0,
                           max_backoff_ms=100.0)
        rng = np.random.default_rng(0)
        assert [backoff_ms(policy, n, rng) for n in (1, 2, 3, 4)] == [
            1.0, 2.0, 4.0, 8.0,
        ]

    def test_backoff_capped(self):
        policy = no_jitter(base_backoff_ms=1.0, backoff_multiplier=10.0,
                           max_backoff_ms=5.0)
        rng = np.random.default_rng(0)
        assert backoff_ms(policy, 1, rng) == 1.0
        assert backoff_ms(policy, 2, rng) == 5.0
        assert backoff_ms(policy, 10, rng) == 5.0

    def test_jitter_is_bounded_and_deterministic(self):
        policy = ResilienceConfig(base_backoff_ms=2.0, jitter_fraction=0.5)
        values = [backoff_ms(policy, 1, np.random.default_rng(33))
                  for _ in range(5)]
        assert len(set(values)) == 1  # same seed -> same jitter
        assert 2.0 <= values[0] <= 3.0  # base * (1 + U[0, 0.5])
        other = backoff_ms(policy, 1, np.random.default_rng(34))
        assert other != values[0]

    def test_attempt_must_be_one_based(self):
        with pytest.raises(ValueError):
            backoff_ms(ResilienceConfig(), 0, np.random.default_rng(0))


class TestFaultCost:
    def test_timeout_costs_attempt_timeout(self):
        policy = ResilienceConfig(attempt_timeout_ms=12.5,
                                  error_latency_ms=0.8)
        assert fault_cost_ms(policy, FAULT_TIMEOUT) == 12.5
        assert fault_cost_ms(policy, FAULT_ERROR) == 0.8


class TestFromConfig:
    def test_mirrors_resilience_config(self):
        # The backend keeps the config it was given, and the schedule
        # and fault costs read that object: no copy to drift from it.
        config = ResilienceConfig(
            max_attempts=7, base_backoff_ms=0.25, backoff_multiplier=3.0,
            max_backoff_ms=50.0, jitter_fraction=0.1,
            attempt_timeout_ms=20.0, error_latency_ms=2.0,
            op_deadline_ms=500.0,
        )
        backend = ServiceBackend(SystemConfig(resilience=config))
        held = backend.config.resilience
        assert held is config
        rng = np.random.default_rng(0)
        assert 0.75 <= backoff_ms(held, 2, rng) <= 0.75 * 1.1
        assert 50.0 <= backoff_ms(held, 6, rng) <= 50.0 * 1.1
        assert fault_cost_ms(held, FAULT_TIMEOUT) == 20.0
        assert fault_cost_ms(held, FAULT_ERROR) == 2.0

    def test_from_config_validates(self):
        with pytest.raises(ConfigError):
            ServiceBackend(
                SystemConfig(resilience=ResilienceConfig(max_attempts=0))
            )
