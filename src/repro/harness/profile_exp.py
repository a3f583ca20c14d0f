"""Hotspot profiling: ``python -m repro profile``.

Runs one canonical workload cell under :mod:`cProfile` and prints the
top-N hotspots (via :mod:`pstats`).  This is the tool that drove the
kernel fast-path work — the heap loop, ``Timeout`` construction, and
the sampler/charge path dominate, and regressions in any of them show
up immediately at the top of this report.

One line beside the table books the cyclic collector: cProfile charges
a collection pass to whichever frame allocated when it fired, so a
function's tottime can carry passes that are not its own work.
"""

from __future__ import annotations

import cProfile
import gc
import io
import pstats
import time
from typing import Any, Callable, Dict, Optional

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


class _CollectorClock:
    """A ``gc.callbacks`` hook: collector passes, full (generation-2)
    passes and the CPU they took."""

    def __init__(self):
        self.passes = 0
        self.full_passes = 0
        self.cpu_s = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.process_time()
            return
        self.cpu_s += time.process_time() - self._started
        self.passes += 1
        if info["generation"] == 2:
            self.full_passes += 1


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
    collector = _CollectorClock()
    gc.callbacks.append(collector)
    started = time.process_time()
    profiler.enable()
    try:
        PROFILE_TARGETS[target](config)
    finally:
        profiler.disable()
        cpu_s = time.process_time() - started
        gc.callbacks.remove(collector)
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    header = (
        f"profile target={target!r} sort={sort} top={top}\n"
        "(cProfile inflates absolute times ~2-3x; compare shapes, not "
        "wall-clock — timings: python3 benchmarks/e2e/run.py "
        "--workload <name> --trace 1, cpu_share.* and the per-layer "
        "cells)\n"
        f"collector: {collector.passes} passes "
        f"({collector.full_passes} full), {collector.cpu_s * 1e3:.1f} ms "
        f"= {100.0 * collector.cpu_s / max(cpu_s, 1e-9):.1f}% of "
        "profiled CPU\n"
    )
    return header + buffer.getvalue()
