"""The storage-plane scaling sweep: per-shard stations in the DES,
saturation relief from 1 → 4 shards, and low-load neutrality."""

import pytest

from repro.config import SystemConfig
from repro.harness import (
    SimPlatform,
    run_shard_point,
    run_shard_sweep,
    shard_sweep_config,
)
from repro.workloads import MixedRatioWorkload


def test_sweep_config_selects_sharded_backend_and_contention():
    config = shard_sweep_config(4)
    assert config.storage.log_shards == 4
    assert config.storage.kv_partitions == 4
    assert config.cluster.model_log_contention
    assert config.cluster.model_store_contention


def test_platform_sizes_stations_from_the_plane():
    platform = SimPlatform(
        MixedRatioWorkload(0.5, num_keys=100), "boki",
        shard_sweep_config(4),
    )
    assert len(platform._shard_next_free) == 4
    assert len(platform._store_next_free) == 4
    default = SimPlatform(
        MixedRatioWorkload(0.5, num_keys=100), "boki",
        SystemConfig(),
    )
    # The default plane: one station per shard and per partition.
    assert len(default._shard_next_free) == 1
    assert len(default._shard_next_free) == (
        default.runtime.backend.plane.num_log_shards
    )
    assert len(default._store_next_free) == 1


def test_p99_improves_with_shards_at_high_load():
    """The acceptance shape: at saturating load, p99 strictly improves
    from 1 to 4 log shards; at low load the medians agree to noise."""
    high = {
        shards: run_shard_point(
            shards, 600.0, duration_ms=2_500.0, warmup_ms=500.0,
            num_keys=800, config=SystemConfig(seed=42),
        )
        for shards in (1, 4)
    }
    assert high[4].p99_ms < high[1].p99_ms
    assert (high[4].extras["log_wait_ms_total"]
            < high[1].extras["log_wait_ms_total"])
    low = {
        shards: run_shard_point(
            shards, 60.0, duration_ms=2_500.0, warmup_ms=500.0,
            num_keys=800, config=SystemConfig(seed=42),
        )
        for shards in (1, 4)
    }
    assert low[4].median_ms == pytest.approx(low[1].median_ms, rel=0.10)


def test_sweep_table_shape_and_determinism():
    kwargs = dict(
        shard_counts=(1, 2), rates=(80.0,), duration_ms=1_500.0,
        warmup_ms=300.0, num_keys=200, config=SystemConfig(seed=7),
    )
    table = run_shard_sweep(**kwargs)
    again = run_shard_sweep(**kwargs)
    assert table.headers == ["log shards", "rate (req/s)", "median (ms)",
                             "p99 (ms)", "log wait (ms/req)",
                             "seq occupancy"]
    assert len(table.rows) == 2
    assert table.rows == again.rows  # same seed → same table


def test_sharded_run_reports_placement_metrics():
    result = run_shard_point(
        2, 80.0, duration_ms=1_200.0, warmup_ms=200.0, num_keys=200,
        config=SystemConfig(seed=3),
    )
    # Per-shard / per-partition bytes ride the plane's probe.
    plane = result.metrics["storage_plane"]
    assert len(plane["shard_bytes"]) == 2
    assert len(plane["partition_bytes"]) == 2
    assert all(b > 0 for b in plane["shard_bytes"])
    assert all(b > 0 for b in plane["partition_bytes"])
