"""Unit tests for latency distributions."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.simulation import (
    ConstantLatency,
    EmpiricalLatency,
    LogNormalLatency,
    UniformLatency,
)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_constant(rng):
    model = ConstantLatency(3.5)
    assert model.sample(rng) == 3.5
    assert model.mean() == 3.5


def test_constant_rejects_negative():
    with pytest.raises(ConfigError):
        ConstantLatency(-1.0)


def test_lognormal_median_matches_parameter(rng):
    model = LogNormalLatency(median_ms=2.0, p99_ms=6.0)
    samples = [model.sample(rng) for _ in range(20_000)]
    assert np.median(samples) == pytest.approx(2.0, rel=0.05)


def test_lognormal_p99_matches_parameter(rng):
    model = LogNormalLatency(median_ms=2.0, p99_ms=6.0)
    samples = [model.sample(rng) for _ in range(50_000)]
    assert np.percentile(samples, 99) == pytest.approx(6.0, rel=0.08)


def test_lognormal_degenerate_when_p99_equals_median(rng):
    model = LogNormalLatency(1.18, 1.18)
    assert model.sample(rng) == 1.18
    assert model.sigma == 0.0


def test_lognormal_validation():
    with pytest.raises(ConfigError):
        LogNormalLatency(0.0, 1.0)
    with pytest.raises(ConfigError):
        LogNormalLatency(2.0, 1.0)  # p99 < median


def test_lognormal_percentile_analytic():
    model = LogNormalLatency(median_ms=2.0, p99_ms=6.0)
    assert model.percentile(0.5) == pytest.approx(2.0, rel=1e-9)
    assert model.percentile(0.99) == pytest.approx(6.0, rel=1e-6)
    with pytest.raises(ConfigError):
        model.percentile(1.5)


def test_scaled(rng):
    base = ConstantLatency(2.0)
    scaled = base.scaled(1.5)
    assert scaled.sample(rng) == 3.0
    assert scaled.mean() == 3.0


def test_scaled_rejects_negative_factor():
    with pytest.raises(ConfigError):
        ConstantLatency(1.0).scaled(-0.5)


def test_uniform(rng):
    model = UniformLatency(1.0, 3.0)
    samples = [model.sample(rng) for _ in range(5_000)]
    assert all(1.0 <= s <= 3.0 for s in samples)
    assert np.mean(samples) == pytest.approx(2.0, rel=0.05)
    assert model.mean() == 2.0


def test_uniform_validation():
    with pytest.raises(ConfigError):
        UniformLatency(3.0, 1.0)


def test_empirical_resamples_only_observed(rng):
    model = EmpiricalLatency([1.0, 2.0, 4.0])
    samples = {model.sample(rng) for _ in range(200)}
    assert samples <= {1.0, 2.0, 4.0}
    assert model.mean() == pytest.approx(7.0 / 3.0)


def test_empirical_requires_samples():
    with pytest.raises(ConfigError):
        EmpiricalLatency([])
