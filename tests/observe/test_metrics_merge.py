"""Merge-horizon semantics for wall-clock metric merges.

Per-worker throughput meters stop updating at different instants;
these tests pin the invariant that merging extends both operands to ONE
shared horizon before dividing — the naive "sum the per-worker rates"
answer is demonstrably wrong on the same inputs.
"""

import pytest

from repro.simulation.metrics import (
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
)


# -- ThroughputMeter ------------------------------------------------------


def test_meter_merge_extends_window_to_horizon():
    a = ThroughputMeter("done")
    for t in (100.0, 200.0, 300.0):
        a.record(t)
    b = ThroughputMeter("done")
    b.record(150.0)

    merged = a.merged(b, horizon_ms=1000.0)
    assert merged.count == 4
    assert merged._first_ms == 100.0
    assert merged._last_ms == 1000.0
    # True fleet rate: 4 completions over the shared 900ms window —
    # NOT the sum of per-meter rates over their own short windows.
    assert merged.rate_per_sec() == pytest.approx(4 * 1000.0 / 900.0)
    naive = a.rate_per_sec() + b.rate_per_sec()
    assert naive > merged.rate_per_sec()


def test_meter_merge_horizon_clamps_down_to_latest_event():
    a = ThroughputMeter("done")
    a.record(100.0)
    a.record(300.0)
    b = ThroughputMeter("done")
    b.record(150.0)
    # Horizon earlier than the last event: window cannot shrink below
    # the span the events themselves occupy.
    merged = a.merged(b, horizon_ms=50.0)
    assert merged._last_ms == 300.0
    assert merged.rate_per_sec() == pytest.approx(3 * 1000.0 / 200.0)


def test_meter_merge_empty_operands():
    a = ThroughputMeter("done")
    b = ThroughputMeter("done")
    merged = a.merged(b, horizon_ms=500.0)
    assert merged.count == 0
    assert merged.rate_per_sec() == 0.0
    # One-sided: the empty meter must not perturb the other.
    b.record(100.0)
    merged = a.merged(b, horizon_ms=600.0)
    assert merged.count == 1
    assert merged._first_ms == 100.0
    assert merged._last_ms == 600.0


# -- parity merges (no horizon semantics) ---------------------------------


def test_latency_counter_series_merges():
    la = LatencyRecorder("l")
    la.extend([1.0, 2.0])
    lb = LatencyRecorder("l")
    lb.record(3.0)
    assert sorted(la.merged(lb).samples) == [1.0, 2.0, 3.0]

    ca = Counter()
    ca.add("x", 2)
    cb = Counter()
    cb.add("x")
    cb.add("y", 5)
    assert ca.merged(cb).as_dict() == {"x": 3, "y": 5}

    sa = TimeSeries("s")
    sa.record(10.0, 1.0)
    sb = TimeSeries("s")
    sb.record(5.0, 2.0)
    assert sa.merged(sb).points == [(5.0, 2.0), (10.0, 1.0)]
