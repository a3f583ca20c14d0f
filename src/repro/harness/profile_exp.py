"""Hotspot profiling: ``python -m repro profile``.

Runs one canonical workload cell under :mod:`cProfile` and prints the
top-N hotspots (via :mod:`pstats`).  This is the tool that drove the
kernel fast-path work — the heap loop, ``Timeout`` construction, and
the sampler/charge path dominate, and regressions in any of them show
up immediately at the top of this report.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Dict, Optional

from ..config import SystemConfig
from ..errors import SimulationError
from .chaos import run_chaos_point
from .micro import measure_op_latencies
from .shards_exp import run_shard_point

#: pstats sort keys the CLI accepts.
SORT_KEYS = ("cumulative", "tottime", "ncalls")


def _shards_cell(config: Optional[SystemConfig]) -> None:
    base = config if config is not None else SystemConfig(seed=7)
    run_shard_point(
        shards=4, rate_per_s=600.0, protocol="boki", config=base,
        duration_ms=3_000.0,
    )


def _fig10_cell(config: Optional[SystemConfig]) -> None:
    base = config if config is not None else SystemConfig(seed=11)
    measure_op_latencies("halfmoon-read", base, requests=400)


def _chaos_cell(config: Optional[SystemConfig]) -> None:
    run_chaos_point(
        "boki", 0.05, config=config, requests=200,
        seed=None if config is not None else 5,
    )


#: Canonical profiling targets: name -> cell runner.
PROFILE_TARGETS: Dict[str, Callable[[Optional[SystemConfig]], None]] = {
    "shards": _shards_cell,
    "fig10": _fig10_cell,
    "chaos": _chaos_cell,
}


def profile_report(
    target: str = "shards",
    top: int = 25,
    sort: str = "cumulative",
    config: Optional[SystemConfig] = None,
) -> str:
    """Profile one canonical cell and return the pstats report text."""
    if target not in PROFILE_TARGETS:
        raise SimulationError(
            f"unknown profile target {target!r}; "
            f"available: {sorted(PROFILE_TARGETS)}"
        )
    if sort not in SORT_KEYS:
        raise SimulationError(
            f"unknown sort key {sort!r}; available: {list(SORT_KEYS)}"
        )
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        PROFILE_TARGETS[target](config)
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    header = (
        f"profile target={target!r} sort={sort} top={top}\n"
        "(cProfile inflates absolute times ~2-3x; compare shapes, not "
        "wall-clock — timings: python3 benchmarks/e2e/run.py "
        "--workload <name> --trace 1, cpu_share.* and the per-layer "
        "cells)\n"
    )
    return header + buffer.getvalue()
