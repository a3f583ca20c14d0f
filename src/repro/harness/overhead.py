"""System-overhead experiments (Section 6.3, Figures 12 and 13).

Both figures use the synthetic SSF that issues ten operations per request
against uniformly random objects, sweeping the read ratio:

* :func:`run_fig12` measures *time-averaged storage* (log + database)
  under different object sizes and GC intervals; the crossover between
  Halfmoon-read and Halfmoon-write should sit slightly above read ratio
  0.5 and be insensitive to the GC interval.

* :func:`run_fig13` measures *median request latency* at several request
  rates; the crossover should sit near read ratio 2/3 (slightly above,
  because C_w exceeds 2 C_r in practice) and be insensitive to load.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer, breakdown_table
from ..protocols.registry import EXACTLY_ONCE_SYSTEMS
from ..workloads.synthetic import MixedRatioWorkload
from .parallel import cell_config, run_grid, sweep_of
from .platform import RunResult, SimPlatform
from .report import ExperimentTable

DEFAULT_RATIOS = (0.1, 0.3, 0.5, 0.7, 0.9)


def run_overhead_point(
    protocol: str,
    read_ratio: float,
    config: Optional[SystemConfig] = None,
    rate_per_s: float = 60.0,
    duration_ms: float = 30_000.0,
    warmup_ms: float = 2_000.0,
    num_keys: int = 600,
    ops_per_request: int = 10,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One (system, read-ratio) cell shared by Figures 12 and 13."""
    workload = MixedRatioWorkload(
        read_ratio, num_keys=num_keys, ops_per_request=ops_per_request
    )
    platform = SimPlatform(
        workload, protocol, cell_config(config), tracer=tracer
    )
    return platform.run(rate_per_s, duration_ms, warmup_ms=warmup_ms)


@sweep_of(run_overhead_point)
def run_fig12(
    value_bytes: int = 256,
    gc_interval_ms: float = 10_000.0,
    read_ratios: Sequence[float] = DEFAULT_RATIOS,
    systems: Sequence[str] = EXACTLY_ONCE_SYSTEMS,
    config: Optional[SystemConfig] = None,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """One panel of Figure 12: storage vs read ratio.  Remaining
    keywords are :func:`run_overhead_point`'s."""
    point["config"] = cell_config(config).with_value_bytes(
        value_bytes
    ).with_gc_interval(gc_interval_ms)
    table = ExperimentTable(
        f"Figure 12: storage overhead "
        f"(size={value_bytes}B, GC={gc_interval_ms / 1000:.0f}s)",
        ["system", "read ratio", "avg log (KB)", "avg db (KB)",
         "avg total (KB)"],
    )
    grid = run_grid(
        run_overhead_point, dict(protocol=systems, read_ratio=read_ratios),
        point, jobs=jobs, tracer=tracer,
    )
    for cell, result in grid:
        table.add_row(
            cell["protocol"], cell["read_ratio"],
            result.avg_log_bytes / 1024.0,
            result.avg_db_bytes / 1024.0,
            result.avg_total_bytes / 1024.0,
        )
    table.add_note(
        "expected shape: HM-write storage grows with read ratio (read "
        "log), HM-read shrinks (fewer versions); crossover slightly above "
        "0.5; Boki above the best protocol everywhere; crossover "
        "insensitive to GC interval"
    )
    return table.attach(grid)


def run_fig13(
    rates: Sequence[float] = (100.0, 200.0, 300.0, 400.0),
    read_ratios: Sequence[float] = DEFAULT_RATIOS,
    systems: Sequence[str] = EXACTLY_ONCE_SYSTEMS,
    config: Optional[SystemConfig] = None,
    duration_ms: float = 8_000.0,
    num_keys: int = 2_000,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
) -> Dict[float, ExperimentTable]:
    """Figure 13: median latency vs read ratio at several request rates.

    The full (rate, system, ratio) grid is one cell set, so ``jobs``
    parallelises across every panel at once.
    """
    grid = run_grid(
        run_overhead_point,
        dict(rate_per_s=rates, protocol=systems, read_ratio=read_ratios),
        dict(config=config, duration_ms=duration_ms, warmup_ms=1_000.0,
             num_keys=num_keys),
        jobs=jobs, tracer=tracer,
    )
    tables: Dict[float, ExperimentTable] = {
        rate: ExperimentTable(
            f"Figure 13: runtime overhead at {rate:.0f} requests/s",
            ["system", "read ratio", "median (ms)", "p99 (ms)"],
        )
        for rate in rates
    }
    for cell, result in grid:
        tables[cell["rate_per_s"]].add_row(
            cell["protocol"], cell["read_ratio"],
            result.median_ms, result.p99_ms,
        )
    for table in tables.values():
        table.add_note(
            "expected shape: HM-read latency falls with read ratio, "
            "HM-write rises; crossover near 2/3 regardless of rate; both "
            "below Boki (1.2-1.5x)"
        )
        table.attach(grid)
    return tables


def run_latency_breakdown(
    read_ratio: float = 0.5,
    systems: Sequence[str] = EXACTLY_ONCE_SYSTEMS,
    config: Optional[SystemConfig] = None,
    rate_per_s: float = 150.0,
    duration_ms: float = 8_000.0,
    warmup_ms: float = 1_000.0,
    num_keys: int = 2_000,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Per-protocol latency breakdown at one overhead operating point.

    Shows *where* each system's request milliseconds go — queueing vs
    logAppend vs logReadPrev vs store operations vs retries — which is
    the mechanism behind the Figure 13 crossover: Halfmoon-read removes
    the read log from the critical path, Halfmoon-write the write log.
    Stage components sum exactly to the end-to-end latency (see
    :mod:`repro.observe.breakdown`).
    """
    grid = run_grid(
        run_overhead_point, dict(protocol=systems),
        dict(read_ratio=read_ratio, config=config, rate_per_s=rate_per_s,
             duration_ms=duration_ms, warmup_ms=warmup_ms,
             num_keys=num_keys),
        jobs=jobs, tracer=tracer,
    )
    return breakdown_table(
        {cell["protocol"]: result.breakdown for cell, result in grid},
        f"Latency breakdown (read ratio {read_ratio}, "
        f"{rate_per_s:.0f} req/s)",
    ).attach(grid)


def crossover_ratio(
    table: ExperimentTable,
    metric: str,
    read_ratios: Sequence[float] = DEFAULT_RATIOS,
) -> float:
    """Estimate the read ratio where HM-read's metric first drops below
    HM-write's (linear interpolation between sampled ratios)."""
    reads = [
        table.lookup({"system": "halfmoon-read", "read ratio": r}, metric)
        for r in read_ratios
    ]
    writes = [
        table.lookup({"system": "halfmoon-write", "read ratio": r}, metric)
        for r in read_ratios
    ]
    previous_delta = None
    for i, ratio in enumerate(read_ratios):
        delta = reads[i] - writes[i]
        if delta <= 0:
            if previous_delta is None or previous_delta <= 0:
                return ratio
            # Interpolate the zero crossing.
            r0, r1 = read_ratios[i - 1], ratio
            return r0 + (r1 - r0) * previous_delta / (
                previous_delta - delta
            )
        previous_delta = delta
    return 1.0
