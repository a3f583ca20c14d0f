"""Per-request latency decomposition.

The paper's headline claims are latency *decompositions* — Halfmoon
wins by removing log operations from the critical path — so the
harness needs to show where each request's milliseconds go, not just
the end-to-end percentile.

:class:`LatencyBreakdown` accumulates one stage vector per completed
request, built so the stages sum **exactly** to that request's
end-to-end latency:

* in DES mode every simulated millisecond a request spends is either
  gateway queueing, a charged service-call cost kind, logging-layer
  contention wait, or failure-detection delay — the platform feeds all
  of them in;
* in direct mode the cost trace *is* the request latency, entry by
  entry.

Because the per-request sum is exact, the median of the sums equals
the end-to-end median, and per-stage means sum to the end-to-end mean.
The report also attributes the median request across stages
proportionally to the mean stage shares ("median-attributed"), so the
attributed components sum to the end-to-end median by construction.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

import numpy as np

from ..errors import SimulationError

# -- stage taxonomy ------------------------------------------------------

STAGE_QUEUEING = "queueing"
STAGE_LOG_APPEND = "log_append"
STAGE_LOG_READ = "log_read"
STAGE_STORE = "store"
STAGE_COMPUTE = "compute"
STAGE_RETRIES = "retries"
STAGE_RECOVERY = "recovery"
STAGE_OTHER = "other"

#: Report order.
STAGES = (
    STAGE_QUEUEING,
    STAGE_LOG_APPEND,
    STAGE_LOG_READ,
    STAGE_STORE,
    STAGE_COMPUTE,
    STAGE_RETRIES,
    STAGE_RECOVERY,
    STAGE_OTHER,
)

#: Cost-kind / synthetic-segment label → stage.  The kind strings are
#: the :class:`repro.runtime.services.Cost` labels; they are spelled
#: out literally here to keep this module import-cycle-free (observe
#: must not import the runtime it instruments).
_STAGE_OF: Dict[str, str] = {
    # platform-synthesised segments
    "queue_wait": STAGE_QUEUEING,
    "log_queue_wait": STAGE_QUEUEING,
    "takeover_gap": STAGE_RECOVERY,
    "failure_detection": STAGE_RECOVERY,
    # service-call cost kinds
    "log_append": STAGE_LOG_APPEND,
    "log_append_overlapped": STAGE_LOG_APPEND,
    "log_append_control": STAGE_LOG_APPEND,
    "log_append_background": STAGE_LOG_APPEND,
    "log_read": STAGE_LOG_READ,
    "db_read": STAGE_STORE,
    "db_read_version": STAGE_STORE,
    "db_write": STAGE_STORE,
    "db_write_version": STAGE_STORE,
    "db_cond_write": STAGE_STORE,
    "invoke_overhead": STAGE_COMPUTE,
    "compute": STAGE_COMPUTE,
    # resilience-layer charges
    "retry_backoff": STAGE_RETRIES,
    "service_error": STAGE_RETRIES,
    "service_timeout": STAGE_RETRIES,
}


def stage_of(kind: str) -> str:
    """Map a cost kind or platform segment label to its report stage."""
    return _STAGE_OF.get(kind, STAGE_OTHER)


class LatencyBreakdown:
    """Per-request stage vectors with exact-sum accounting."""

    def __init__(self, name: str = "latency-breakdown"):
        self.name = name
        self._per_stage: Dict[str, List[float]] = {
            stage: [] for stage in STAGES
        }
        self._totals: List[float] = []

    # -- recording ------------------------------------------------------

    def record(self, contributions: Mapping[str, float]) -> None:
        """Add one request's ``{kind_or_segment: ms}`` vector."""
        agg = {stage: 0.0 for stage in STAGES}
        total = 0.0
        for kind, ms in contributions.items():
            if ms < 0:
                raise SimulationError(
                    f"negative stage contribution {kind}={ms}"
                )
            agg[stage_of(kind)] += ms
            total += ms
        for stage in STAGES:
            self._per_stage[stage].append(agg[stage])
        self._totals.append(total)

    # -- statistics -----------------------------------------------------

    @property
    def count(self) -> int:
        return len(self._totals)

    def stage_samples(self, stage: str) -> List[float]:
        return list(self._per_stage[stage])

    def stage_mean(self, stage: str) -> float:
        values = self._per_stage[stage]
        if not values:
            raise SimulationError(f"breakdown {self.name!r} is empty")
        return float(np.mean(values))

    def stage_p99(self, stage: str) -> float:
        values = self._per_stage[stage]
        if not values:
            raise SimulationError(f"breakdown {self.name!r} is empty")
        return float(np.percentile(values, 99.0))

    def total_mean(self) -> float:
        if not self._totals:
            raise SimulationError(f"breakdown {self.name!r} is empty")
        return float(np.mean(self._totals))

    def total_median(self) -> float:
        if not self._totals:
            raise SimulationError(f"breakdown {self.name!r} is empty")
        return float(np.percentile(self._totals, 50.0))

    def total_p99(self) -> float:
        if not self._totals:
            raise SimulationError(f"breakdown {self.name!r} is empty")
        return float(np.percentile(self._totals, 99.0))

    def stage_share(self, stage: str) -> float:
        """Mean share of end-to-end latency, in [0, 1]."""
        total = self.total_mean()
        if total <= 0:
            return 0.0
        return self.stage_mean(stage) / total

    def median_attributed(self, stage: str) -> float:
        """The stage's slice of the *median* request, attributed
        proportionally to mean stage shares; slices sum exactly to the
        end-to-end median."""
        return self.stage_share(stage) * self.total_median()

    # -- reporting ------------------------------------------------------

    def rows(self) -> List[List[object]]:
        """One row per non-empty stage:
        ``[stage, mean, p99, share%, median-attributed]``."""
        out: List[List[object]] = []
        for stage in STAGES:
            mean = self.stage_mean(stage)
            if mean == 0.0 and self.stage_p99(stage) == 0.0:
                continue
            out.append([
                stage,
                mean,
                self.stage_p99(stage),
                100.0 * self.stage_share(stage),
                self.median_attributed(stage),
            ])
        return out


def breakdown_table(
    breakdowns: Mapping[str, LatencyBreakdown],
    title: str = "Latency breakdown",
):
    """Cross-system latency-breakdown :class:`ExperimentTable`.

    ``breakdowns`` maps a system/protocol name to its breakdown.  Each
    system gets one row per active stage plus a ``TOTAL`` row whose
    mean equals the end-to-end mean and whose median-attributed column
    equals the end-to-end median (exact by construction).
    """
    # Imported lazily: harness.report is a leaf module, but the harness
    # package pulls in the platform (which imports repro.observe).
    from ..harness.report import ExperimentTable

    table = ExperimentTable(
        title,
        ["system", "stage", "mean (ms)", "p99 (ms)", "share (%)",
         "median-attr (ms)"],
    )
    for system, breakdown in breakdowns.items():
        if breakdown.count == 0:
            table.add_row(system, "(no samples)", 0.0, 0.0, 0.0, 0.0)
            continue
        for row in breakdown.rows():
            table.add_row(system, *row)
        table.add_row(
            system, "TOTAL",
            breakdown.total_mean(),
            breakdown.total_p99(),
            100.0,
            breakdown.total_median(),
        )
    table.add_note(
        "per-request stage vectors sum exactly to end-to-end latency: "
        "stage means sum to the e2e mean, and the median-attr column "
        "(median request split by mean stage shares) sums to the e2e "
        "median"
    )
    return table
