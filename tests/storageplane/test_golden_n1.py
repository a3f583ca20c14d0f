"""Golden runs of the default 1×1 plane: pinned numbers.

Every plane names the shard / partition each operation lands on; at
1×1 the router answers 0.  These literals were captured from the 1×1
plane before placement became a plain shard number, over the same runs
the plane's two placement models used to be compared on, so a change to
the default plane — an RNG stream consumed in another order, a charge
moved, a record placed elsewhere — fails here.
"""

import pytest

from repro.config import SystemConfig
from repro.harness import SimPlatform, run_overhead_point
from repro.runtime import BernoulliCrashes
from repro.workloads import MixedRatioWorkload


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


#: protocol → the seed-77 run's numbers.
GOLDEN = {
    "boki": {
        "completed": 243,
        "median_ms": 41.41259760928506,
        "p99_ms": 51.677053560033386,
        "avg_log_bytes": 520643.47402276495,
        "avg_db_bytes": 153600.0,
        "counters": {
            "log_read": 296, "log_append_control": 296, "compute": 296,
            "log_append_overlapped": 1443, "db_cond_write": 1443,
            "log_append": 2960, "db_read": 1517,
        },
        "time_by_kind": {
            "log_read": 47.4985037604893,
            "log_append_control": 88.28870604160187,
            "compute": 74.0,
            "log_append_overlapped": 956.905600731098,
            "db_cond_write": 4491.676374730585,
            "log_append": 3572.6414416891516,
            "db_read": 3077.583835196693,
        },
        "next_seqnum": 5000,
    },
    "halfmoon-read": {
        "completed": 243,
        "median_ms": 36.936996412922326,
        "p99_ms": 47.30703308287431,
        "avg_log_bytes": 139557.1005601393,
        "avg_db_bytes": 456089.1007582375,
        "counters": {
            "log_read": 1813, "log_append_control": 296, "compute": 296,
            "log_append_overlapped": 1443, "db_write_version": 1443,
            "log_append": 1443, "db_read_version": 1517,
        },
        "time_by_kind": {
            "log_read": 295.0119539200659,
            "log_append_control": 89.54013749322661,
            "compute": 74.0,
            "log_append_overlapped": 951.7704895941374,
            "db_write_version": 4124.532306197695,
            "log_append": 1743.2520774610123,
            "db_read_version": 3537.915910329717,
        },
        "next_seqnum": 3483,
    },
    "halfmoon-write": {
        "completed": 243,
        "median_ms": 32.42890994458958,
        "p99_ms": 40.164612642646716,
        "avg_log_bytes": 407517.3037561185,
        "avg_db_bytes": 153600.0,
        "counters": {
            "log_read": 296, "log_append_control": 296, "compute": 296,
            "db_cond_write": 1443, "db_read": 1517, "log_append": 1517,
        },
        "time_by_kind": {
            "log_read": 46.01251171055392,
            "log_append_control": 88.95957244515951,
            "compute": 74.0,
            "db_cond_write": 4517.349649162966,
            "db_read": 3064.4902763656855,
            "log_append": 1828.5244922219467,
        },
        "next_seqnum": 2114,
    },
}


def _observed(platform, result):
    return {
        "completed": result.completed,
        "median_ms": result.median_ms,
        "p99_ms": result.p99_ms,
        "avg_log_bytes": result.avg_log_bytes,
        "avg_db_bytes": result.avg_db_bytes,
        "counters": result.counters,
        "time_by_kind": result.time_by_kind,
        "next_seqnum": platform.runtime.backend.log.next_seqnum,
    }


@pytest.mark.parametrize("protocol", ["boki", "halfmoon-read",
                                      "halfmoon-write"])
def test_des_run_bit_identical_at_1x1(protocol):
    platform, result = _run(SystemConfig(seed=77), protocol)
    assert _observed(platform, result) == GOLDEN[protocol]


def test_gc_and_crash_paths_bit_identical_at_1x1():
    platform, result = _run(SystemConfig(seed=13), crash_f=0.15)
    assert result.crashed_attempts == 42
    assert _observed(platform, result) == {
        "completed": 232,
        "median_ms": 37.095430164531535,
        "p99_ms": 49.679702355784734,
        "avg_log_bytes": 144537.87199746043,
        "avg_db_bytes": 468583.63743246614,
        "counters": {
            "log_read": 1932, "log_append_control": 297, "compute": 334,
            "log_append_overlapped": 1463, "db_write_version": 1471,
            "log_append": 1463, "db_read_version": 1591,
        },
        "time_by_kind": {
            "log_read": 311.42668037730175,
            "log_append_control": 89.03074768552702,
            "compute": 83.5,
            "log_append_overlapped": 975.7610226750178,
            "db_write_version": 4137.34844337085,
            "log_append": 1763.8486139573813,
            "db_read_version": 3754.545195526403,
        },
        "next_seqnum": 3524,
    }


def test_overhead_experiment_bit_identical_at_1x1():
    result = run_overhead_point(
        "boki", 0.5, SystemConfig(seed=5), rate_per_s=80.0,
        duration_ms=2_000.0, warmup_ms=400.0, num_keys=200,
    )
    assert result.median_ms == 41.24770052836084
    assert result.p99_ms == 50.683154677701346
    assert result.avg_total_bytes == 362089.5922877735


def test_default_metric_key_shapes_unchanged():
    """No topology emits a ``shard=`` / ``partition=`` metric key:
    per-shard / per-partition bytes ride the ``storage_plane`` probe's
    lists."""
    for shards in (1, 2):
        _, result = _run(SystemConfig(seed=3).with_storage_plane(
            log_shards=shards, kv_partitions=shards
        ))
        for name in result.metrics:
            assert "shard=" not in name
            assert "partition=" not in name
        plane = result.metrics["storage_plane"]
        assert len(plane["shard_bytes"]) == shards
        assert len(plane["partition_bytes"]) == shards
