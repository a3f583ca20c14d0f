"""Exact-sum latency-breakdown tests."""

import pytest

from repro.errors import SimulationError
from repro.observe import (
    STAGES,
    LatencyBreakdown,
    breakdown_table,
    stage_of,
)


class TestStageMapping:
    def test_cost_kinds_map_to_stages(self):
        assert stage_of("log_append") == "log_append"
        assert stage_of("log_append_overlapped") == "log_append"
        assert stage_of("log_read") == "log_read"
        assert stage_of("db_cond_write") == "store"
        assert stage_of("compute") == "compute"
        assert stage_of("retry_backoff") == "retries"
        assert stage_of("service_timeout") == "retries"

    def test_platform_segments_map_to_stages(self):
        assert stage_of("queue_wait") == "queueing"
        assert stage_of("log_queue_wait") == "queueing"
        assert stage_of("takeover_gap") == "recovery"
        assert stage_of("failure_detection") == "recovery"

    def test_unknown_kind_is_other(self):
        assert stage_of("child") == "other"
        assert stage_of("???") == "other"


class TestExactSums:
    def _sample(self) -> LatencyBreakdown:
        bd = LatencyBreakdown("test")
        bd.record({"queue_wait": 2.0, "log_append": 3.0,
                   "compute": 5.0})
        bd.record({"queue_wait": 1.0, "db_read": 4.0,
                   "retry_backoff": 2.0})
        bd.record({"log_read": 6.0, "compute": 6.0})
        return bd

    def test_stage_means_sum_to_total_mean(self):
        bd = self._sample()
        total = sum(bd.stage_mean(stage) for stage in STAGES)
        assert total == pytest.approx(bd.total_mean(), rel=1e-12)

    def test_median_attributed_sums_to_total_median(self):
        bd = self._sample()
        attributed = sum(
            bd.median_attributed(stage) for stage in STAGES
        )
        assert attributed == pytest.approx(
            bd.total_median(), rel=1e-12
        )

    def test_negative_contribution_rejected(self):
        bd = LatencyBreakdown()
        with pytest.raises(SimulationError):
            bd.record({"compute": -1.0})

    def test_empty_breakdown_raises(self):
        bd = LatencyBreakdown()
        assert bd.count == 0
        with pytest.raises(SimulationError):
            bd.total_mean()
        with pytest.raises(SimulationError):
            bd.stage_mean("compute")


class TestReporting:
    def test_rows_skip_empty_stages(self):
        bd = LatencyBreakdown()
        bd.record({"compute": 10.0})
        rows = bd.rows()
        assert [row[0] for row in rows] == ["compute"]
        assert rows[0][1] == 10.0

    def test_breakdown_table_total_matches_e2e(self):
        bd = LatencyBreakdown()
        bd.record({"compute": 4.0, "log_append": 6.0})
        bd.record({"compute": 8.0})
        table = breakdown_table({"sys": bd})
        rendered = str(table)
        assert "TOTAL" in rendered and "sys" in rendered
        total_row = next(
            row for row in table.rows if row[1] == "TOTAL"
        )
        assert total_row[2] == pytest.approx(bd.total_mean())
        assert total_row[-1] == pytest.approx(bd.total_median())

    def test_breakdown_table_handles_empty(self):
        table = breakdown_table({"sys": LatencyBreakdown()})
        assert "(no samples)" in str(table)
