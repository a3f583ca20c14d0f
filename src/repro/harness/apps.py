"""End-to-end application experiments (Figure 11).

Sweeps offered load for each application workload and each system,
reporting median and p99 latency versus achieved throughput — the three
panels of Figure 11.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer
from ..protocols.registry import SYSTEMS
from ..workloads import (
    MovieReviewWorkload,
    RetwisWorkload,
    TravelReservationWorkload,
    Workload,
)
from .parallel import cell_config, run_grid, sweep_of
from .platform import RunResult, SimPlatform
from .report import ExperimentTable

APP_FACTORIES: Dict[str, Callable[[], Workload]] = {
    "travel-reservation": TravelReservationWorkload,
    "movie-review": MovieReviewWorkload,
    "retwis": RetwisWorkload,
}

#: Rate sweeps roughly matching the x-axes of Figure 11 (requests/s).
DEFAULT_RATES: Dict[str, Sequence[int]] = {
    "travel-reservation": (100, 300, 500, 700, 900),
    "movie-review": (50, 150, 250, 350, 450),
    "retwis": (100, 300, 500, 700, 900),
}


def run_app_point(
    app: str,
    protocol: str,
    rate_per_s: float,
    config: Optional[SystemConfig] = None,
    duration_ms: float = 6_000.0,
    warmup_ms: float = 1_000.0,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One (app, system, rate) cell of Figure 11."""
    workload = APP_FACTORIES[app]()
    platform = SimPlatform(
        workload, protocol, cell_config(config), tracer=tracer
    )
    return platform.run(rate_per_s, duration_ms, warmup_ms=warmup_ms)


@sweep_of(run_app_point)
def run_fig11(
    apps: Sequence[str] = tuple(APP_FACTORIES),
    systems: Sequence[str] = SYSTEMS,
    rates: Optional[Dict[str, Sequence[int]]] = None,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> Dict[str, ExperimentTable]:
    """Figure 11: latency vs throughput for the three applications.
    Remaining keywords are :func:`run_app_point`'s.

    ``jobs`` spreads the whole (app, system, rate) grid across a
    process pool; every panel is assembled from results in grid order,
    so output is identical at any job count.
    """
    rates = rates if rates is not None else DEFAULT_RATES
    grid = run_grid(
        run_app_point,
        [
            dict(app=app, protocol=system, rate_per_s=rate)
            for app in apps
            for system in systems
            for rate in rates[app]
        ],
        point, jobs=jobs, tracer=tracer,
    )
    tables: Dict[str, ExperimentTable] = {
        app: ExperimentTable(
            f"Figure 11: {app} latency vs throughput",
            ["system", "offered (req/s)", "achieved (req/s)",
             "median (ms)", "p99 (ms)"],
        )
        for app in apps
    }
    for cell, result in grid:
        tables[cell["app"]].add_row(
            cell["protocol"], cell["rate_per_s"],
            round(result.throughput_per_s, 1),
            result.median_ms, result.p99_ms,
        )
    for table in tables.values():
        table.add_note(
            "expected shape: the matching Halfmoon protocol 20-40% below "
            "Boki; HM-read wins on travel/retwis, HM-write on movie; "
            "both Halfmoon variants beat Boki even when mis-chosen"
        )
        table.attach(grid)
    return tables
