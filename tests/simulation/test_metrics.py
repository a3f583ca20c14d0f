"""Unit tests for measurement primitives."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import (
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    TimeWeightedGauge,
)


class TestLatencyRecorder:
    def test_percentiles(self):
        rec = LatencyRecorder()
        rec.extend(range(1, 101))
        assert rec.median() == pytest.approx(50.5)
        assert rec.p99() == pytest.approx(99.01)
        assert rec.mean() == pytest.approx(50.5)
        assert rec.count == 100

    def test_empty_recorder_raises(self):
        rec = LatencyRecorder("empty")
        with pytest.raises(SimulationError):
            rec.median()

    def test_negative_sample_rejected(self):
        rec = LatencyRecorder()
        with pytest.raises(SimulationError):
            rec.record(-0.1)

    def test_summary(self):
        rec = LatencyRecorder("ops")
        rec.extend([1.0, 2.0, 3.0])
        summary = rec.summary()
        assert summary.count == 3
        assert summary.median_ms == 2.0
        assert "ops" in str(summary)

    @pytest.mark.parametrize("length", [1, 2, 3, 100, 10_001])
    def test_stats_equals_the_three_separate_reads(self, length):
        # One array conversion, one two-quantile percentile call: bit
        # for bit what mean() / median() / p99() each compute alone.
        rec = LatencyRecorder()
        rec.extend(np.random.default_rng(length).lognormal(
            0.5, 1.2, size=length
        ))
        assert rec.stats() == (rec.mean(), rec.median(), rec.p99())
        summary = rec.summary()
        assert (summary.mean_ms, summary.median_ms,
                summary.p99_ms) == rec.stats()

    def test_stats_of_empty_recorder_raises(self):
        with pytest.raises(SimulationError):
            LatencyRecorder("empty").stats()

    def test_merged(self):
        a = LatencyRecorder()
        b = LatencyRecorder()
        a.extend([1.0, 2.0])
        b.extend([3.0])
        merged = a.merged(b)
        assert merged.count == 3
        assert a.count == 2  # originals untouched


class TestCounter:
    def test_add_and_get(self):
        c = Counter()
        c.add("x")
        c.add("x", 4)
        assert c.get("x") == 5
        assert c.get("missing") == 0
        assert c.as_dict() == {"x": 5}

    def test_negative_rejected(self):
        c = Counter()
        with pytest.raises(SimulationError):
            c.add("x", -1)


class TestTimeWeightedGauge:
    def test_time_average_piecewise(self):
        g = TimeWeightedGauge("storage", start_time_ms=0.0,
                              initial_value=10.0)
        g.set(20.0, now_ms=10.0)   # 10 for [0,10)
        g.set(0.0, now_ms=20.0)    # 20 for [10,20)
        # average over [0, 40): (10*10 + 20*10 + 0*20) / 40 = 7.5
        assert g.time_average(40.0) == pytest.approx(7.5)

    def test_observed_constant_series_averages_to_itself(self):
        # A sampler reads the counter at every instant, moved or not.
        # ``set`` splits the integral at each call and the pieces sum
        # to 153 600.00000000003-style drift; ``observe`` leaves an
        # unchanged reading alone, so the average is the value.
        instants = np.cumsum(
            np.random.default_rng(7).exponential(0.37, size=1_000)
        )
        eager = TimeWeightedGauge("db", 0.0, 153_600)
        sampled = TimeWeightedGauge("db", 0.0, 153_600)
        for now in instants:
            eager.set(153_600, now)
            sampled.observe(153_600, now)
        end = float(instants[-1]) + 1.0
        assert sampled.time_average(end) == sampled.value == 153_600.0
        assert eager.time_average(end) != 153_600.0  # why it matters

    def test_observe_of_a_new_value_is_a_set(self):
        g = TimeWeightedGauge("g", 0.0, 10.0)
        g.observe(10.0, 5.0)
        g.observe(20.0, 10.0)
        g.observe(20.0, 15.0)
        assert (g.value, g.max_value) == (20.0, 20.0)
        assert g.time_average(20.0) == pytest.approx(15.0)
        with pytest.raises(SimulationError):
            g.observe(1.0, 9.0)

    def test_add_delta(self):
        g = TimeWeightedGauge("g")
        g.add(5.0, now_ms=1.0)
        g.add(-2.0, now_ms=2.0)
        assert g.value == 3.0

    def test_max_value_tracked(self):
        g = TimeWeightedGauge("g")
        g.set(7.0, 1.0)
        g.set(3.0, 2.0)
        assert g.max_value == 7.0

    def test_backwards_time_rejected(self):
        g = TimeWeightedGauge("g")
        g.set(1.0, 5.0)
        with pytest.raises(SimulationError):
            g.set(2.0, 4.0)

    def test_average_at_start_is_current_value(self):
        g = TimeWeightedGauge("g", start_time_ms=0.0, initial_value=4.0)
        assert g.time_average(0.0) == 4.0


class TestThroughputMeter:
    def test_rate(self):
        m = ThroughputMeter()
        for t in [0.0, 100.0, 200.0, 300.0]:
            m.record(t)
        assert m.count == 4
        # 4 completions over the 300 ms observed window.
        assert m.rate_per_sec() == pytest.approx(4 * 1000.0 / 300.0)

    def test_explicit_window(self):
        m = ThroughputMeter()
        m.record(10.0)
        m.record(20.0)
        assert m.rate_per_sec(window_ms=1000.0) == pytest.approx(2.0)

    def test_empty_meter(self):
        assert ThroughputMeter().rate_per_sec() == 0.0

    def test_single_sample_uses_min_window(self):
        # One completion has an observed span of zero, which used to
        # report a silent 0.0 rate; the floor (1 ms) now applies.
        m = ThroughputMeter()
        m.record(500.0)
        assert m.rate_per_sec() == pytest.approx(1 * 1000.0 / 1.0)

    def test_simultaneous_samples_use_min_window(self):
        m = ThroughputMeter(min_window_ms=10.0)
        m.record(42.0)
        m.record(42.0)
        assert m.rate_per_sec() == pytest.approx(2 * 1000.0 / 10.0)

    def test_min_window_floors_explicit_window(self):
        m = ThroughputMeter(min_window_ms=5.0)
        m.record(0.0)
        assert m.rate_per_sec(window_ms=1.0) == pytest.approx(
            1 * 1000.0 / 5.0
        )

    def test_non_positive_min_window_rejected(self):
        with pytest.raises(SimulationError):
            ThroughputMeter(min_window_ms=0.0)
        with pytest.raises(SimulationError):
            ThroughputMeter(min_window_ms=-1.0)


class TestTimeSeries:
    def test_window_selection(self):
        ts = TimeSeries("lat")
        for t in range(10):
            ts.record(float(t), float(t * 2))
        window = ts.window(3.0, 6.0)
        assert [v for _, v in window] == [6.0, 8.0, 10.0]
        assert len(ts.values()) == 10

    def test_merged_interleaves_by_timestamp(self):
        a = TimeSeries("lat")
        a.record(1.0, 10.0)
        a.record(5.0, 50.0)
        b = TimeSeries("lat")
        b.record(3.0, 30.0)
        merged = a.merged(b)
        assert merged.points == [(1.0, 10.0), (3.0, 30.0), (5.0, 50.0)]
        # Inputs are untouched.
        assert len(a.points) == 2 and len(b.points) == 1


class TestCounterMerged:
    def test_merged_sums_counts(self):
        a = Counter()
        a.add("x", 2)
        a.add("y")
        b = Counter()
        b.add("x", 3)
        b.add("z", 5)
        merged = a.merged(b)
        assert merged.as_dict() == {"x": 5, "y": 1, "z": 5}
        # Inputs are untouched.
        assert a.get("x") == 2 and b.get("x") == 3
