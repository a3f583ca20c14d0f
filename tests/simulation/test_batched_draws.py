"""Seeded draw-sequence identity for the batched latency samplers.

The vectorised fast path (:class:`NormalDrawBatch` +
``LatencyModel.batched_sampler``) refills ``chunk`` standard normals at
a time via ``rng.standard_normal(chunk)``.  Its entire correctness
argument is *stream identity*: a refill consumes the generator's bit
stream exactly as the same number of scalar draws would, and
``rng.lognormal(mu, sigma)`` equals ``exp(mu + sigma * z)`` bit for
bit.  These tests pin that identity across refill boundaries — if it
ever breaks, every seeded experiment shifts silently.
"""

import math

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.runtime.services import LatencyProvider, RecordCache
from repro.simulation import NormalDrawBatch
from repro.simulation.latency import ConstantLatency, LogNormalLatency

SEED = 20260808


def test_batch_matches_scalar_standard_normals_across_refills():
    # Draw well past several refill boundaries with a deliberately tiny
    # chunk; the sequence must equal sequential scalar draws from an
    # identically seeded generator, bit for bit.
    batch = NormalDrawBatch(np.random.default_rng(SEED), chunk=7)
    scalar = np.random.default_rng(SEED)
    got = [batch.next_normal() for _ in range(100)]
    want = [float(scalar.standard_normal()) for _ in range(100)]
    assert got == want
    assert batch.refills == math.ceil(100 / 7)


def test_lognormal_batched_sampler_matches_scalar_lognormal():
    model = LogNormalLatency(median_ms=2.0, p99_ms=9.0)
    batch = NormalDrawBatch(np.random.default_rng(SEED), chunk=5)
    sampler = model.batched_sampler(batch)
    scalar = np.random.default_rng(SEED)
    # Bit-equality, not approximate: rng.lognormal(mu, sigma) is
    # exactly exp(mu + sigma * standard_normal()).
    got = [sampler() for _ in range(64)]
    want = [model.sample(scalar) for _ in range(64)]
    assert got == want


def test_interleaved_models_share_one_stream_identically():
    # Several models fed from one batch interleave on one stream, in
    # draw order — exactly like scalar sampling against one generator.
    fast = LogNormalLatency(1.0, 3.0)
    slow = LogNormalLatency(10.0, 80.0)
    fixed = ConstantLatency(4.5)  # consumes zero draws
    batch = NormalDrawBatch(np.random.default_rng(SEED), chunk=3)
    samplers = [m.batched_sampler(batch) for m in (fast, slow, fixed)]
    scalar = np.random.default_rng(SEED)
    models = (fast, slow, fixed)
    for i in range(50):
        pick = i % 3
        assert samplers[pick]() == models[pick].sample(scalar)


def test_scaled_latency_propagates_batching():
    base = LogNormalLatency(2.0, 9.0)
    scaled = base.scaled(0.25)
    batch = NormalDrawBatch(np.random.default_rng(SEED), chunk=4)
    sampler = scaled.batched_sampler(batch)
    scalar = np.random.default_rng(SEED)
    got = [sampler() for _ in range(32)]
    want = [scaled.sample(scalar) for _ in range(32)]
    assert got == want


def test_degenerate_models_consume_no_draws():
    # sigma == 0 lognormal and ConstantLatency return without touching
    # the stream; the next real draw must be the stream's first.
    batch = NormalDrawBatch(np.random.default_rng(SEED))
    LogNormalLatency(3.0, 3.0).batched_sampler(batch)()
    ConstantLatency(1.0).batched_sampler(batch)()
    assert batch.refills == 0
    assert batch.next_normal() == float(
        np.random.default_rng(SEED).standard_normal()
    )


def test_invalid_chunk_rejected():
    with pytest.raises(ConfigError):
        NormalDrawBatch(np.random.default_rng(SEED), chunk=0)


def test_provider_batched_samplers_match_scalar_provider():
    # End to end at the LatencyProvider level: every kind the service
    # backend charges, drawn batched vs. scalar on identically seeded
    # streams, stays bit-identical — including across a tiny chunk's
    # many refill boundaries.
    config = SystemConfig(seed=17)
    provider = LatencyProvider(config, RecordCache())
    samplers, hit, miss = provider.batched_samplers(
        np.random.default_rng(SEED), chunk=3
    )
    scalar_provider = LatencyProvider(config, RecordCache())
    scalar = np.random.default_rng(SEED)
    kinds = sorted(samplers)
    for round_no in range(20):
        for kind in kinds:
            assert samplers[kind]() == scalar_provider.sample(kind, scalar), (
                kind, round_no,
            )
        assert hit() == scalar_provider._log_read_hit.sample(scalar)
        assert miss() == scalar_provider._log_read_miss.sample(scalar)
