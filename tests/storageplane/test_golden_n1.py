"""Golden-run equivalence: at a 1×1 topology the sharded backend is
bit-identical to the seed single-node plane — same seqnums, same latency
samples (RNG streams consumed in the same order), same storage traces,
same metric values.  ``repro.protocols`` behaviour must not change."""

import pytest

from repro.config import SystemConfig
from repro.harness import SimPlatform, run_overhead_point
from repro.runtime import BernoulliCrashes
from repro.workloads import MixedRatioWorkload


def _sharded_1x1(config: SystemConfig) -> SystemConfig:
    return config.with_storage_plane(
        log_shards=1, kv_partitions=1, backend="sharded"
    )


def _run(config, protocol="halfmoon-read", rate=120.0, crash_f=0.0):
    platform = SimPlatform(
        MixedRatioWorkload(0.5, num_keys=300), protocol, config
    )
    if crash_f > 0.0:
        platform.runtime.crash_policy = BernoulliCrashes(
            crash_f, platform.runtime.backend.rng.stream("golden-crashes")
        )
    result = platform.run(rate, 2_500.0, warmup_ms=500.0)
    return platform, result


@pytest.mark.parametrize("protocol", ["boki", "halfmoon-read",
                                      "halfmoon-write"])
def test_des_run_bit_identical_at_1x1(protocol):
    config = SystemConfig(seed=77)
    p_single, r_single = _run(config, protocol)
    p_sharded, r_sharded = _run(_sharded_1x1(config), protocol)
    assert r_single.completed == r_sharded.completed
    assert r_single.median_ms == r_sharded.median_ms
    assert r_single.p99_ms == r_sharded.p99_ms
    assert r_single.avg_log_bytes == r_sharded.avg_log_bytes
    assert r_single.avg_db_bytes == r_sharded.avg_db_bytes
    assert r_single.counters == r_sharded.counters
    assert r_single.time_by_kind == r_sharded.time_by_kind
    log_a = p_single.runtime.backend.log
    log_b = p_sharded.runtime.backend.log
    assert log_a.next_seqnum == log_b.next_seqnum
    assert log_a.storage_bytes() == log_b.storage_bytes()
    assert log_a.stream_tags() == log_b.stream_tags()


def test_gc_and_crash_paths_bit_identical_at_1x1():
    config = SystemConfig(seed=13)
    _, r_single = _run(config, crash_f=0.15)
    _, r_sharded = _run(_sharded_1x1(config), crash_f=0.15)
    assert r_single.crashed_attempts > 0
    assert r_single.crashed_attempts == r_sharded.crashed_attempts
    assert r_single.median_ms == r_sharded.median_ms
    assert r_single.counters == r_sharded.counters


def test_overhead_experiment_bit_identical_at_1x1():
    base = SystemConfig(seed=5)
    r_single = run_overhead_point(
        "boki", 0.5, base, rate_per_s=80.0, duration_ms=2_000.0,
        warmup_ms=400.0, num_keys=200,
    )
    r_sharded = run_overhead_point(
        "boki", 0.5, _sharded_1x1(base), rate_per_s=80.0,
        duration_ms=2_000.0, warmup_ms=400.0, num_keys=200,
    )
    assert r_single.median_ms == r_sharded.median_ms
    assert r_single.p99_ms == r_sharded.p99_ms
    assert r_single.avg_total_bytes == r_sharded.avg_total_bytes


def test_default_metric_key_shapes_unchanged():
    """The default (unlabelled) plane emits no shard=/partition= labels,
    so downstream metric-key consumers see the pre-plane shapes."""
    _, result = _run(SystemConfig(seed=3))
    for name, value in result.metrics.items():
        assert "shard=" not in name
        assert "partition=" not in name
    _, labelled = _run(
        SystemConfig(seed=3).with_storage_plane(
            log_shards=2, kv_partitions=2
        )
    )
    assert any("shard=" in name for name in labelled.metrics)
    assert any("partition=" in name for name in labelled.metrics)
