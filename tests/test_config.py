"""Unit tests for configuration validation and helpers."""

import pytest

from repro import SystemConfig
from repro.config import (
    ClusterConfig,
    FailureConfig,
    GCConfig,
    LatencyConfig,
    StorageSizeConfig,
)
from repro.errors import ConfigError


class TestLatencyConfig:
    def test_defaults_valid(self):
        LatencyConfig().validate()

    def test_p99_below_median_rejected(self):
        with pytest.raises(ConfigError):
            LatencyConfig(db_read_median_ms=2.0,
                          db_read_p99_ms=1.0).validate()

    def test_nonpositive_median_rejected(self):
        with pytest.raises(ConfigError):
            LatencyConfig(log_append_median_ms=0.0).validate()

    def test_factor_bounds(self):
        with pytest.raises(ConfigError):
            LatencyConfig(conditional_write_factor=0.9).validate()
        with pytest.raises(ConfigError):
            LatencyConfig(multiversion_read_factor=0.5).validate()
        with pytest.raises(ConfigError):
            LatencyConfig(overlapped_log_factor=1.5).validate()
        with pytest.raises(ConfigError):
            LatencyConfig(control_log_factor=-0.1).validate()


class TestClusterConfig:
    def test_total_workers(self):
        assert ClusterConfig(function_nodes=8,
                             workers_per_node=8).total_workers == 64

    def test_bounds(self):
        with pytest.raises(ConfigError):
            ClusterConfig(function_nodes=0).validate()
        with pytest.raises(ConfigError):
            ClusterConfig(storage_nodes=0).validate()


class TestOtherSections:
    def test_gc_interval_positive(self):
        with pytest.raises(ConfigError):
            GCConfig(interval_ms=0).validate()

    def test_storage_sizes_positive(self):
        with pytest.raises(ConfigError):
            StorageSizeConfig(value_bytes=0).validate()

    def test_failure_probability_bounds(self):
        with pytest.raises(ConfigError):
            FailureConfig(detection_delay_ms=-1.0).validate()
        with pytest.raises(ConfigError):
            FailureConfig(max_retries=-1).validate()


class TestSystemConfig:
    def test_validate_returns_self(self):
        config = SystemConfig()
        assert config.validate() is config

    def test_with_helpers_produce_new_configs(self):
        base = SystemConfig()
        assert base.with_seed(9).seed == 9
        assert base.with_gc_interval(5.0).gc.interval_ms == 5.0
        assert base.with_value_bytes(1024).storage.value_bytes == 1024
        # The original is untouched (frozen dataclasses).
        assert base.seed != 9 or base.seed == 9  # frozen: no mutation API
        assert base.gc.interval_ms == 10_000.0

    def test_invalid_nested_section_caught(self):
        config = SystemConfig(gc=GCConfig(interval_ms=-1))
        with pytest.raises(ConfigError):
            config.validate()


class TestResilienceAndFaults:
    def test_with_fault_rate_builds_uniform_plan(self):
        config = SystemConfig().with_fault_rate(0.1, scope="log")
        assert config.faults.enabled
        assert config.faults.scope == "log"
        assert config.faults.total_rate == pytest.approx(0.1)
        config.validate()

    def test_with_resilience_overrides_knobs(self):
        config = SystemConfig().with_resilience(
            max_attempts=8, degraded_log_reads=False
        )
        assert config.resilience.max_attempts == 8
        assert not config.resilience.degraded_log_reads
        # Untouched knobs keep their defaults.
        assert config.resilience.breaker_cooldown_ops == 50

    def test_invalid_resilience_caught_by_system_validate(self):
        from repro.config import ResilienceConfig

        with pytest.raises(ConfigError):
            SystemConfig(
                resilience=ResilienceConfig(max_attempts=0)
            ).validate()
        with pytest.raises(ConfigError):
            SystemConfig(
                resilience=ResilienceConfig(backoff_multiplier=0.5)
            ).validate()

    def test_invalid_fault_scope_caught(self):
        from repro.config import FaultConfig

        with pytest.raises(ConfigError):
            SystemConfig(
                faults=FaultConfig(enabled=True, error_rate=0.1,
                                   scope="network")
            ).validate()
