"""Latency distributions for simulated service calls.

The paper reports operation latencies as (median, p99) pairs (Table 1).  A
log-normal distribution is the conventional fit for storage/network service
times and is fully determined by those two quantiles:

    median = exp(mu)           =>  mu    = ln(median)
    p99    = exp(mu + z99 * s) =>  sigma = ln(p99 / median) / z99

where ``z99 = Phi^-1(0.99) ~= 2.3263``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from ..errors import ConfigError

#: A batched sampler: draws one service time from a shared
#: :class:`NormalDrawBatch` (no per-call generator argument).
BatchedSampler = Callable[[], float]

#: 99th-percentile z-score of the standard normal distribution.
Z99 = 2.3263478740408408

#: Default refill size for :class:`NormalDrawBatch`.  Large enough that
#: the numpy vector call amortises to noise, small enough that a short
#: run does not waste draws (unused tail draws are simply never taken —
#: they do not perturb any other stream).
DEFAULT_DRAW_CHUNK = 1024


class NormalDrawBatch:
    """Chunked standard-normal draws from one exclusively-owned stream.

    Refills pull ``chunk`` draws at a time via
    ``rng.standard_normal(chunk)``, which consumes the generator's bit
    stream *identically* to ``chunk`` sequential scalar draws — so a
    batch-fed sampler produces the exact seeded sequence the scalar
    ``rng.lognormal(mu, sigma)`` path does, across refill boundaries
    (pinned by ``tests/simulation/test_batched_draws.py``).

    The correctness contract is exclusivity: every consumer of the
    underlying stream must draw through this batch (a refill would
    reorder consumption against a scalar draw from the same stream).
    """

    __slots__ = ("rng", "chunk", "_buf", "_pos", "refills")

    def __init__(self, rng: np.random.Generator,
                 chunk: int = DEFAULT_DRAW_CHUNK):
        if chunk < 1:
            raise ConfigError("chunk must be >= 1")
        self.rng = rng
        self.chunk = int(chunk)
        #: Python floats (``tolist``): scalar math on the hot path stays
        #: in C doubles instead of numpy scalar objects.
        self._buf: list = []
        self._pos = 0
        self.refills = 0

    def next_normal(self) -> float:
        """The next standard-normal draw from the owned stream."""
        pos = self._pos
        buf = self._buf
        if pos >= len(buf):
            buf = self._buf = self.rng.standard_normal(self.chunk).tolist()
            self.refills += 1
            pos = 0
        self._pos = pos + 1
        return buf[pos]


class LatencyModel:
    """Base class: a sampleable distribution of service times (ms)."""

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "LatencyModel":
        """Return this distribution with all mass scaled by ``factor``."""
        return ScaledLatency(self, factor)

    def batched_sampler(self, batch: NormalDrawBatch) -> BatchedSampler:
        """Return a zero-arg sampler drawing through ``batch``.

        It must consume the stream exactly as ``sample`` does — one
        standard normal per draw, or nothing at all — so the scalar
        ``sample`` stays the reference the batched draws are pinned to.
        Closures are intentionally not cached on the instance: models
        stay picklable for process fan-out.
        """
        raise NotImplementedError


class ConstantLatency(LatencyModel):
    """Degenerate distribution; useful for tests and analytic checks."""

    def __init__(self, value_ms: float):
        if value_ms < 0:
            raise ConfigError("latency must be non-negative")
        self.value_ms = float(value_ms)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value_ms

    def mean(self) -> float:
        return self.value_ms

    def batched_sampler(self, batch: NormalDrawBatch) -> BatchedSampler:
        value = self.value_ms
        return lambda: value

    def __repr__(self) -> str:
        return f"ConstantLatency({self.value_ms!r})"


class LogNormalLatency(LatencyModel):
    """Log-normal service time parameterised by (median, p99)."""

    def __init__(self, median_ms: float, p99_ms: float):
        if median_ms <= 0:
            raise ConfigError("median must be positive")
        if p99_ms < median_ms:
            raise ConfigError("p99 must be >= median")
        self.median_ms = float(median_ms)
        self.p99_ms = float(p99_ms)
        self._mu = math.log(median_ms)
        self._sigma = (
            0.0 if p99_ms == median_ms
            else math.log(p99_ms / median_ms) / Z99
        )

    @property
    def mu(self) -> float:
        return self._mu

    @property
    def sigma(self) -> float:
        return self._sigma

    def sample(self, rng: np.random.Generator) -> float:
        if self._sigma == 0.0:
            return self.median_ms
        return float(rng.lognormal(self._mu, self._sigma))

    def mean(self) -> float:
        return math.exp(self._mu + self._sigma ** 2 / 2.0)

    def batched_sampler(self, batch: NormalDrawBatch) -> BatchedSampler:
        if self._sigma == 0.0:
            median = self.median_ms
            return lambda: median
        # ``rng.lognormal(mu, sigma)`` is exactly
        # ``exp(mu + sigma * standard_normal())`` — bit-for-bit — so
        # feeding the transform from the batch preserves the seeded
        # sequence.
        mu, sigma = self._mu, self._sigma
        exp = math.exp
        next_normal = batch.next_normal

        def draw() -> float:
            # Inlined ``next_normal``: the cursor is read here, so a
            # draw is one Python call; only a refill goes through the
            # batch (which swaps ``_buf``, hence the read per draw).
            pos = batch._pos
            buf = batch._buf
            if pos < len(buf):
                batch._pos = pos + 1
                return exp(mu + sigma * buf[pos])
            return exp(mu + sigma * next_normal())

        return draw

    def percentile(self, q: float) -> float:
        """Analytic quantile, ``q`` in (0, 1)."""
        if not 0.0 < q < 1.0:
            raise ConfigError("q must be in (0, 1)")
        # Inverse-normal via the rational approximation is overkill here;
        # numpy provides the exact quantile through the underlying normal.
        from scipy.special import ndtri  # local import: scipy is installed

        return math.exp(self._mu + self._sigma * float(ndtri(q)))

    def __repr__(self) -> str:
        return (
            f"LogNormalLatency(median={self.median_ms!r}, "
            f"p99={self.p99_ms!r})"
        )


class UniformLatency(LatencyModel):
    """Uniform service time on ``[low_ms, high_ms]``."""

    def __init__(self, low_ms: float, high_ms: float):
        if low_ms < 0 or high_ms < low_ms:
            raise ConfigError("need 0 <= low <= high")
        self.low_ms = float(low_ms)
        self.high_ms = float(high_ms)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low_ms, self.high_ms))

    def mean(self) -> float:
        return (self.low_ms + self.high_ms) / 2.0


class EmpiricalLatency(LatencyModel):
    """Resamples from a fixed set of observed latencies."""

    def __init__(self, samples_ms: Sequence[float]):
        if not samples_ms:
            raise ConfigError("need at least one sample")
        arr = np.asarray(samples_ms, dtype=float)
        if np.any(arr < 0):
            raise ConfigError("latencies must be non-negative")
        self._samples = arr

    def sample(self, rng: np.random.Generator) -> float:
        return float(self._samples[rng.integers(0, len(self._samples))])

    def mean(self) -> float:
        return float(self._samples.mean())


class ScaledLatency(LatencyModel):
    """A base distribution with all mass multiplied by a factor."""

    def __init__(self, base: LatencyModel, factor: float):
        if factor < 0:
            raise ConfigError("scale factor must be non-negative")
        self.base = base
        self.factor = float(factor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.base.sample(rng) * self.factor

    def mean(self) -> float:
        return self.base.mean() * self.factor

    def batched_sampler(self, batch: NormalDrawBatch) -> BatchedSampler:
        inner, factor = self.base.batched_sampler(batch), self.factor
        return lambda: inner() * factor
