"""Tests for the chaos experiment harness."""

from repro import SystemConfig
from repro.harness import (
    run_brownout_comparison,
    run_chaos_point,
    run_chaos_sweep,
)
from repro.harness.chaos import EXACTLY_ONCE_SYSTEMS

QUICK = dict(requests=60, num_keys=12)


class TestChaosPoint:
    def test_logged_protocols_report_zero_violations(self):
        for system in EXACTLY_ONCE_SYSTEMS:
            point = run_chaos_point(system, 0.1, seed=42, **QUICK)
            assert point.violations == 0, system
            assert point.retries > 0  # faults were actually injected

    def test_unsafe_violates_under_crashes(self):
        point = run_chaos_point("unsafe", 0.1, seed=42, **QUICK)
        assert point.violations > 0
        assert point.crashes_fired > 0

    def test_fault_free_point_has_no_retries(self):
        point = run_chaos_point("boki", 0.0, seed=42, crash_f=0.0,
                                **QUICK)
        assert point.retries == 0
        assert point.violations == 0
        assert point.crashes_fired == 0

    def test_goodput_positive(self):
        point = run_chaos_point("halfmoon-read", 0.05, seed=42, **QUICK)
        assert point.goodput_per_s > 0


class TestChaosSweep:
    def test_sweep_is_deterministic_per_seed(self):
        render = lambda: run_chaos_sweep(  # noqa: E731
            fault_rates=(0.0, 0.1), systems=("unsafe", "boki"),
            seed=7, **QUICK,
        ).render()
        assert render() == render()

    def test_sweep_rows_cover_grid(self):
        table = run_chaos_sweep(
            fault_rates=(0.0, 0.05), systems=("boki", "halfmoon-read"),
            seed=7, **QUICK,
        )
        assert len(table.rows) == 4
        out = table.render()
        assert "violations" in out
        assert "p99 amp" in out


class TestBrownout:
    def test_fallback_beats_no_fallback_on_log_read_p99(self):
        table = run_brownout_comparison(requests=150, num_keys=15,
                                        seed=11)
        rows = {row[0]: row for row in table.rows}
        assert set(rows) == {"on", "off"}
        on, off = rows["on"], rows["off"]
        # columns: fallback, median, p99, degraded, trips, request p99
        assert on[3] > 0, "fallback run must serve degraded reads"
        assert off[3] == 0
        assert on[2] < off[2], (
            "cache fallback should lower log-read p99 under brown-out"
        )

    def test_no_fallback_log_read_tail_includes_timeouts(self):
        """The log-read columns are a read's cost to its caller: under a
        brown-out the no-fallback tail rides out at least one attempt
        timeout, not just the final round trip."""
        table = run_brownout_comparison(seed=42)
        off_p99 = table.lookup({"fallback": "off"}, "log-read p99 (ms)")
        assert off_p99 >= SystemConfig().resilience.attempt_timeout_ms
