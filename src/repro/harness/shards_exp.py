"""Storage-plane scaling experiment: p99 latency vs offered load as the
log is split across 1/2/4/8 shards.

The paper's testbed treats the logging layer as a fixed three-node
service because, at its request rates, "logging is typically not the
bottleneck" (Section 6.2).  This experiment asks the follow-up question
the sharded storage plane exists to answer: *when* logging does become
the bottleneck, how far does splitting the metalog's record placement
across N shards push the saturation knee?

Method: the fig10-13 mixed-ratio workload runs against the ``sharded``
backend at N ∈ {1, 2, 4, 8} log shards with the DES per-shard queueing
model enabled (every append queues at *its record's* shard station, so
hot shards saturate individually).  The sequencer stays a single
station at every N — that is the metalog: ordering is centralized,
capacity is horizontal, which is exactly the Boki decomposition.

Expected shape: at low load all shard counts agree to within noise (the
plane adds no per-operation cost, only placement); at high load p99
improves monotonically 1 → 4 shards as per-shard utilisation drops,
with diminishing returns once the sequencer or the workers dominate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer
from ..workloads.synthetic import MixedRatioWorkload
from .parallel import cell_config, point_kwargs, run_grid, sweep_of
from .platform import RunResult, SimPlatform
from .report import ExperimentTable

DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)
DEFAULT_RATES = (150.0, 300.0, 600.0)


def shard_sweep_config(
    shards: int,
    base: Optional[SystemConfig] = None,
    kv_partitions: Optional[int] = None,
    log_shard_service_ms: float = 0.1,
    store_partition_service_ms: float = 0.05,
) -> SystemConfig:
    """The sweep's operating point for one shard count.

    Every point queues at exactly N shard stations (one per shard, as
    on every plane), so the comparison is station-for-station fair.  The
    per-append shard service time is raised above the default so the
    single-shard station saturates inside the sweep's rate range.
    """
    config = cell_config(base).with_storage_plane(
        log_shards=shards,
        kv_partitions=kv_partitions if kv_partitions is not None else shards,
    )
    return replace(
        config,
        cluster=replace(
            config.cluster,
            model_log_contention=True,
            model_store_contention=True,
            log_shard_service_ms=log_shard_service_ms,
            store_partition_service_ms=store_partition_service_ms,
        ),
    )


def run_shard_point(
    shards: int,
    rate_per_s: float,
    protocol: str = "boki",
    read_ratio: float = 0.5,
    config: Optional[SystemConfig] = None,
    duration_ms: float = 8_000.0,
    warmup_ms: float = 1_000.0,
    num_keys: int = 2_000,
    ops_per_request: int = 10,
    kv_partitions: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> RunResult:
    """One (shard count, offered rate) cell of the sweep."""
    workload = MixedRatioWorkload(
        read_ratio, num_keys=num_keys, ops_per_request=ops_per_request
    )
    platform = SimPlatform(
        workload, protocol,
        shard_sweep_config(shards, config, kv_partitions=kv_partitions),
        tracer=tracer,
    )
    result = platform.run(rate_per_s, duration_ms, warmup_ms=warmup_ms)
    # Stash the queueing totals the table reports (RunResult carries
    # latency stats; the waits live on the platform).
    result.extras["log_wait_ms_total"] = platform.log_wait_ms_total
    result.extras["store_wait_ms_total"] = platform.store_wait_ms_total
    return result


@sweep_of(run_shard_point, pins={"log_shards": "shard_counts"})
def run_shard_sweep(
    shard_counts: Sequence[int] = DEFAULT_SHARD_COUNTS,
    rates: Sequence[float] = DEFAULT_RATES,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """p50/p99 vs offered load for each log-shard count.  Remaining
    keywords are :func:`run_shard_point`'s.

    ``jobs`` fans the grid's cells out over a process pool; the table
    is bit-identical at every job count (each cell is self-contained).
    """
    effective = point_kwargs(run_shard_point, point)
    table = ExperimentTable(
        f"Storage-plane scaling: {effective['protocol']} latency vs load "
        f"by log shards (read ratio {effective['read_ratio']})",
        ["log shards", "rate (req/s)", "median (ms)", "p99 (ms)",
         "log wait (ms/req)", "seq occupancy"],
    )
    grid = run_grid(
        run_shard_point, dict(shards=shard_counts, rate_per_s=rates),
        point, jobs=jobs, tracer=tracer,
    )
    for cell, result in grid:
        per_request_wait = result.extras["log_wait_ms_total"] / max(
            result.completed, 1
        )
        table.add_row(
            cell["shards"], cell["rate_per_s"],
            result.median_ms, result.p99_ms,
            per_request_wait,
            result.extras["sequencer"]["occupancy"],
        )
    table.add_note(
        "expected shape: low-load medians within noise across shard "
        "counts (placement is free); at the highest rate p99 and per-"
        "request log wait drop monotonically 1 -> 4 shards as per-shard "
        "utilisation falls; the single sequencer (the metalog) is shared "
        "by every point"
    )
    return table.attach(grid)
