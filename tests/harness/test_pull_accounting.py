"""Storage accounting is pulled: the substrates keep plain byte
counters and ``SimPlatform._sample_storage`` reads them at the instants
storage can change.  The gate that the sampler has no blind instant is
an eager reference built here, in the test: every substrate mutator is
wrapped to integrate bytes·dt at the mutation itself, and the sampled
gauges must agree with it — time average to 1e-12 relative (fewer split
points in the same integral), peak exactly.
"""

from dataclasses import replace

import pytest

from repro.config import ClusterConfig, GCConfig, SystemConfig
from repro.harness import SimPlatform
from repro.harness.failover import CounterWorkload
from repro.recovery import StorageChaosController
from repro.simulation import TimeWeightedGauge
from repro.workloads import MixedRatioWorkload

#: Every method through which a substrate's ``storage_bytes()`` moves.
LOG_MUTATORS = ("_install", "trim")
KV_MUTATORS = {
    "KVStore": ("_replace", "delete"),
    "PartitionedKV": ("put", "conditional_put", "delete",
                      "crash_partition", "rebuild_partition"),
}


def eager_reference(platform, substrate, mutators):
    """A gauge ``set`` after every call of every mutator of
    ``substrate`` — what the deleted listeners used to drive."""
    gauge = TimeWeightedGauge("eager", 0.0, substrate.storage_bytes())
    sim = platform.sim
    mutations = [0]

    def wrap(method):
        def wrapped(*args, **kwargs):
            try:
                return method(*args, **kwargs)
            finally:
                mutations[0] += 1
                gauge.set(substrate.storage_bytes(), sim.now)
        return wrapped

    for name in mutators:
        setattr(substrate, name, wrap(getattr(substrate, name)))
    return gauge, mutations


def run_against_eager_reference(platform, rate_per_s, duration_ms,
                                **run_kwargs):
    backend = platform.runtime.backend
    populated = backend.log.append_count
    ref_log, log_mutations = eager_reference(
        platform, backend.log, LOG_MUTATORS
    )
    ref_db, db_mutations = eager_reference(
        platform, backend.kv, KV_MUTATORS[type(backend.kv).__name__]
    )
    result = platform.run(rate_per_s, duration_ms, **run_kwargs)
    now = platform.sim.now
    assert result.avg_log_bytes == pytest.approx(
        ref_log.time_average(now), rel=1e-12, abs=0.0
    )
    assert result.avg_db_bytes == pytest.approx(
        ref_db.time_average(now), rel=1e-12, abs=0.0
    )
    assert platform.log_gauge.max_value == ref_log.max_value
    assert platform.db_gauge.max_value == ref_db.max_value
    assert platform.log_gauge.value == ref_log.value
    assert platform.db_gauge.value == ref_db.value
    # The reference really ran: it saw every mutation, one at a time.
    assert log_mutations[0] >= backend.log.append_count - populated > 0
    assert db_mutations[0] > 0
    return result


def test_switching_run_with_gc_matches_eager_reference():
    """fig14-shaped: GC on, two ``at()`` protocol switches.  The END
    record of a switch lands in ``tracker.finish``, after the last
    drained step of whichever invocation finishes last."""
    config = replace(
        SystemConfig(seed=14),
        cluster=ClusterConfig(function_nodes=8, workers_per_node=3),
        gc=GCConfig(interval_ms=350.0),
    )
    workload = MixedRatioWorkload(0.2, num_keys=300)
    platform = SimPlatform(workload, "halfmoon-write", config,
                           enable_switching=True)

    def switch_to(protocol, read_ratio):
        def change():
            workload.read_ratio_value = read_ratio
            platform.runtime.begin_switch(protocol)
        return change

    platform.at(1_000.0, switch_to("halfmoon-read", 0.8))
    platform.at(2_000.0, switch_to("halfmoon-write", 0.2))
    result = run_against_eager_reference(platform, 500.0, 3_000.0)
    assert result.completed > 1_400
    history = platform.runtime.switch_manager.switch_history
    assert [entry["to"] for entry in history] == [
        "halfmoon-read", "halfmoon-write"
    ]
    log = platform.runtime.backend.log
    assert log.trim_count > 0  # the collector ran and freed records


def test_partition_crash_and_rebuild_matches_eager_reference():
    """Storage chaos: a KV partition is lost (its bytes vanish at the
    crash instant) and rebuilt from checkpoint + journal."""
    config = (
        SystemConfig(seed=23)
        .with_storage_plane(backend="sharded", log_shards=2,
                            kv_partitions=2)
        .with_storage_chaos(partition_error_rate=0.005,
                            shard_timeout_rate=0.005)
    )
    config = replace(
        config,
        failures=replace(config.failures, detection_delay_ms=25.0),
        gc=GCConfig(interval_ms=500.0),
    )
    platform = SimPlatform(
        CounterWorkload(num_keys=1_200, compute_ms=6.0),
        "halfmoon-read", config,
    )
    controller = StorageChaosController(platform)
    controller.schedule_partition_crash(
        600.0, index=0, rebuild_after_ms=300.0
    )
    result = run_against_eager_reference(
        platform, 300.0, 1_500.0, drain_ms=8_000.0
    )
    assert result.completed > 300
    kv = platform.runtime.backend.kv
    assert kv.rebuilds == 1 and not controller.rebuild_diffs
    # The crash was visible to the sampler: the db gauge dipped.
    assert platform.db_gauge.max_value > 0
    assert kv.storage_bytes() == sum(
        kv.partition_bytes(i) for i in range(kv.num_partitions)
    )


def test_node_crash_and_takeover_matches_eager_reference():
    """A function node dies mid-run; its orphans are re-dispatched and
    replay — interrupted steps are never drained on the dead node."""
    base = SystemConfig(seed=31)
    config = replace(
        base.with_node_recovery(
            lease_ms=250.0, heartbeat_interval_ms=50.0,
            detector_poll_ms=12.5,
        ),
        cluster=replace(base.cluster, function_nodes=4,
                        workers_per_node=4),
        gc=GCConfig(interval_ms=600.0),
    )
    platform = SimPlatform(
        CounterWorkload(num_keys=2_000, compute_ms=8.0),
        "halfmoon-write", config,
    )
    platform.schedule_node_crash(700.0, 0)
    result = run_against_eager_reference(
        platform, 500.0, 1_600.0, drain_ms=6_000.0
    )
    assert result.node_crashes == 1
    assert result.orphaned_invocations > 0
    assert result.recovered_orphans == result.orphaned_invocations


def test_constant_series_averages_to_itself():
    """A store whose writes replace values of equal size never changes
    bytes, over thousands of uneven write instants; sampling on change
    leaves the integral unsplit, so the time average is the value (one
    split per write summed this run to 307 200.00000000006)."""
    result = SimPlatform(
        MixedRatioWorkload(0.5, num_keys=600), "boki",
        SystemConfig(seed=3),
    ).run(150.0, 2_000.0)
    assert result.counters["db_cond_write"] > 1_000
    db = result.metrics["storage_bytes{store=db}"]
    # LATEST slot + genesis version per key, 256 B each.
    assert db["value"] == 2 * 600 * 256
    assert db["time_average"] == db["max_value"] == db["value"]
    assert result.avg_db_bytes == db["value"]
