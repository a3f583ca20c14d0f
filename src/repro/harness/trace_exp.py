"""One fully traced DES run: the ``python -m repro trace`` command.

Runs a single (protocol, rate, read-ratio) operating point of the
synthetic mixed workload with a :class:`~repro.observe.tracing.Tracer`
attached, optionally crashing a node mid-run so the trace shows the
whole recovery pipeline (orphaning, lease expiry, takeover
re-dispatch).  The caller gets the :class:`RunResult` — including the
per-request latency breakdown and the metrics-registry snapshot — plus
the tracer for Chrome trace-event export.

With ``tracing=False`` the identical run executes with ``tracer=None``;
the regression-tested guarantee is that every number in the result is
bit-identical either way (tracing never perturbs the simulation).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..config import SystemConfig
from ..observe import Tracer, breakdown_table
from ..workloads.synthetic import MixedRatioWorkload
from .parallel import cell_config
from .platform import RunResult, SimPlatform
from .report import ExperimentTable


def run_trace(
    protocol: str = "halfmoon-read",
    rate_per_s: float = 150.0,
    duration_ms: float = 5_000.0,
    read_ratio: float = 0.5,
    warmup_ms: float = 0.0,
    crash_node: Optional[int] = None,
    crash_at_ms: Optional[float] = None,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    num_keys: int = 1_000,
    tracing: bool = True,
) -> Tuple[RunResult, Optional[Tracer]]:
    """Run one DES operating point, returning the result and the tracer
    (``None`` when ``tracing=False``)."""
    # A crash without recovery would strand its orphans forever; enable
    # lease-based detection so the trace shows the takeover.
    cfg = cell_config(
        config, seed,
        lease_ms=500.0 if crash_at_ms is not None else None,
    ).validate()
    tracer = Tracer() if tracing else None
    workload = MixedRatioWorkload(read_ratio, num_keys=num_keys)
    platform = SimPlatform(workload, protocol, cfg, tracer=tracer)
    if crash_at_ms is not None:
        platform.schedule_node_crash(
            crash_at_ms, crash_node if crash_node is not None else 0
        )
    result = platform.run(rate_per_s, duration_ms, warmup_ms=warmup_ms)
    return result, tracer


def trace_summary_table(result: RunResult) -> ExperimentTable:
    """Headline numbers of a traced run (identical tracing on or off)."""
    table = ExperimentTable(
        f"Trace run: {result.protocol} / {result.workload}",
        ["metric", "value"],
    )
    table.add_row("offered (req/s)", result.offered_rate_per_s)
    table.add_row("completed", result.completed)
    table.add_row("median (ms)", result.median_ms)
    table.add_row("p99 (ms)", result.p99_ms)
    table.add_row("crashed attempts", result.crashed_attempts)
    table.add_row("faulted attempts", result.faulted_attempts)
    table.add_row("node crashes", result.node_crashes)
    table.add_row("orphaned", result.orphaned_invocations)
    table.add_row("recovered orphans", result.recovered_orphans)
    return table


def trace_breakdown_table(result: RunResult) -> ExperimentTable:
    """The run's per-stage latency decomposition as a report table."""
    return breakdown_table(
        {result.protocol: result.breakdown},
        "Latency breakdown (stages sum to end-to-end latency)",
    )
