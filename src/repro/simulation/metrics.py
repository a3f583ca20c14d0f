"""Measurement primitives: latency recorders, counters, time-weighted gauges.

These are deliberately simulation-agnostic — they take explicit timestamps —
so the same classes serve direct-mode tests and DES-mode benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError


class LatencyRecorder:
    """Accumulates latency samples and reports summary statistics."""

    __slots__ = ("name", "_samples")

    def __init__(self, name: str = "latency"):
        self.name = name
        self._samples: List[float] = []

    def record(self, value_ms: float) -> None:
        if value_ms < 0:
            raise SimulationError(f"negative latency sample: {value_ms}")
        self._samples.append(float(value_ms))

    def extend(self, values_ms) -> None:
        for v in values_ms:
            self.record(v)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    def percentile(self, q: float) -> float:
        """``q`` in [0, 100]; raises if no samples were recorded."""
        if not self._samples:
            raise SimulationError(f"recorder {self.name!r} is empty")
        return float(np.percentile(self._samples, q))

    def median(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def mean(self) -> float:
        if not self._samples:
            raise SimulationError(f"recorder {self.name!r} is empty")
        return float(np.mean(self._samples))

    def stats(self) -> Tuple[float, float, float]:
        """``(mean, median, p99)`` from one array conversion — what
        every report reads together; equal bit for bit to the three
        separate calls."""
        if not self._samples:
            raise SimulationError(f"recorder {self.name!r} is empty")
        arr = np.asarray(self._samples)
        p50, p99 = np.percentile(arr, (50.0, 99.0))
        return float(np.mean(arr)), float(p50), float(p99)

    def merged(self, other: "LatencyRecorder") -> "LatencyRecorder":
        out = LatencyRecorder(self.name)
        out._samples = self._samples + other._samples
        return out


class Counter:
    """Named monotonically increasing counters."""

    __slots__ = ("_counts",)

    def __init__(self):
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError("counter increments must be non-negative")
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)


class TimeWeightedGauge:
    """Tracks a piecewise-constant value and reports its time average.

    Used for the storage-overhead experiments (Figure 12), where the metric
    is *time-averaged* bytes in the log and the database.
    """

    __slots__ = ("name", "_last_time", "_value", "_area", "_start_time",
                 "_max_value")

    def __init__(self, name: str, start_time_ms: float = 0.0,
                 initial_value: float = 0.0):
        self.name = name
        self._last_time = float(start_time_ms)
        self._value = float(initial_value)
        self._area = 0.0
        self._start_time = float(start_time_ms)
        self._max_value = float(initial_value)

    @property
    def value(self) -> float:
        return self._value

    @property
    def max_value(self) -> float:
        return self._max_value

    def set(self, value: float, now_ms: float) -> None:
        last = self._last_time
        if now_ms < last:
            raise SimulationError(
                f"gauge {self.name!r} driven backwards in time "
                f"({now_ms} < {last})"
            )
        value = float(value)
        if now_ms > last:
            # Same-instant updates contribute zero area; skipping the
            # arithmetic keeps repeated sets within one DES instant cheap.
            self._area += self._value * (now_ms - last)
            self._last_time = now_ms
        self._value = value
        if value > self._max_value:
            self._max_value = value

    def observe(self, value: float, now_ms: float) -> None:
        """:meth:`set` for a sampler that reads a counter whether or not
        it moved: an unchanged reading changes nothing and does not
        split the integral, so a constant series averages to itself."""
        if value != self._value:
            self.set(value, now_ms)

    def add(self, delta: float, now_ms: float) -> None:
        self.set(self._value + delta, now_ms)

    def time_average(self, now_ms: Optional[float] = None) -> float:
        end = self._last_time if now_ms is None else float(now_ms)
        if end < self._last_time:
            raise SimulationError("time_average asked before last update")
        area = self._area + self._value * (end - self._last_time)
        elapsed = end - self._start_time
        if elapsed <= 0:
            return self._value
        return area / elapsed


class ThroughputMeter:
    """Counts completions and reports a rate per second.

    ``min_window_ms`` floors the measurement window: a meter that has
    seen a single completion (or several at the same instant) has an
    observed span of zero, which used to yield a silent ``0.0`` rate.
    The floor (default 1 ms) makes the degenerate case report
    ``count / min_window`` instead; callers measuring over a known
    interval should pass it explicitly via ``window_ms``.
    """

    __slots__ = ("name", "min_window_ms", "_count", "_first_ms",
                 "_last_ms")

    def __init__(self, name: str = "throughput",
                 min_window_ms: float = 1.0):
        if min_window_ms <= 0:
            raise SimulationError(
                f"min_window_ms must be positive, got {min_window_ms}"
            )
        self.name = name
        self.min_window_ms = float(min_window_ms)
        self._count = 0
        self._first_ms: Optional[float] = None
        self._last_ms: Optional[float] = None

    def record(self, now_ms: float) -> None:
        if self._first_ms is None:
            self._first_ms = now_ms
        self._count += 1
        self._last_ms = now_ms

    @property
    def count(self) -> int:
        return self._count

    def rate_per_sec(self, window_ms: Optional[float] = None) -> float:
        if self._count == 0 or self._first_ms is None:
            return 0.0
        elapsed = (
            window_ms
            if window_ms is not None
            else (self._last_ms - self._first_ms)  # type: ignore[operator]
        )
        elapsed = max(elapsed, self.min_window_ms)
        return self._count * 1000.0 / elapsed

    def merged(self, other: "ThroughputMeter",
               horizon_ms: Optional[float] = None
               ) -> "ThroughputMeter":
        """Combine two meters over one shared *merge horizon*.

        Per-worker wall-clock meters end their observation window at
        their own last completion; merging them naively (or summing
        their individual rates) double-counts the tail window one
        worker observed and the other had already left — a meter that
        went quiet at 500 ms contributes its count over a 500 ms
        window even though the fleet kept running to 1000 ms, inflating
        the merged rate.  ``horizon_ms`` (the shared snapshot instant)
        extends the merged window to the horizon, clamped down to no
        earlier than the latest recorded event, so
        ``merged.rate_per_sec()`` is ``total / (horizon - first)``.
        """
        out = ThroughputMeter(
            self.name, min(self.min_window_ms, other.min_window_ms)
        )
        out._count = self._count + other._count
        firsts = [m._first_ms for m in (self, other)
                  if m._first_ms is not None]
        lasts = [m._last_ms for m in (self, other)
                 if m._last_ms is not None]
        if firsts:
            out._first_ms = min(firsts)
            last = max(lasts)
            if horizon_ms is not None:
                last = max(last, float(horizon_ms))
            out._last_ms = last
        return out


@dataclass
class TimeSeries:
    """(time, value) samples, e.g. per-request latency over time (Fig. 14)."""

    name: str
    points: List[Tuple[float, float]] = field(default_factory=list)

    def record(self, now_ms: float, value: float) -> None:
        self.points.append((now_ms, value))

    def window(self, start_ms: float, end_ms: float) -> List[Tuple[float, float]]:
        return [(t, v) for t, v in self.points if start_ms <= t < end_ms]

    def values(self) -> List[float]:
        return [v for _, v in self.points]
