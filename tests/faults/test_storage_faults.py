"""Storage-side fault injection: per-component stream determinism,
independence, and the seeded link-partition schedule."""

from repro.config import StorageChaosConfig
from repro.faults.injector import FAULT_ERROR, FAULT_TIMEOUT
from repro.faults.storage import (
    COMPONENT_PARTITION,
    COMPONENT_SHARD,
    LinkPartitionSchedule,
    StorageFaultInjector,
    _component_seed,
)
from repro.harness.parallel import seed_for


def _chaos(**overrides):
    defaults = dict(
        enabled=True,
        shard_error_rate=0.1,
        shard_timeout_rate=0.1,
        partition_error_rate=0.1,
        partition_timeout_rate=0.1,
    )
    defaults.update(overrides)
    return StorageChaosConfig(**defaults)


def _draw_series(injector, kind, component, n=200):
    return [
        injector.draw(kind, component, now_ms=float(i), is_write=True).kind
        for i in range(n)
    ]


def test_component_seed_matches_sweep_derivation():
    # Same derivation the sweeps use for cell seeds: attributable AND
    # schedule-independent, hence bit-identical under --jobs N.
    assert _component_seed(11, COMPONENT_SHARD, 2) == seed_for(
        11, ("storage-faults", COMPONENT_SHARD, 2)
    )


def test_per_component_streams_deterministic_and_independent():
    a = StorageFaultInjector(_chaos(), 11, num_shards=3, num_partitions=2)
    b = StorageFaultInjector(_chaos(), 11, num_shards=3, num_partitions=2)
    for kind, count in ((COMPONENT_SHARD, 3), (COMPONENT_PARTITION, 2)):
        for i in range(count):
            assert _draw_series(a, kind, i) == _draw_series(b, kind, i)
    # Distinct components see distinct plans, and a different base seed
    # reshuffles everything.
    fresh = StorageFaultInjector(
        _chaos(), 11, num_shards=3, num_partitions=2
    )
    assert (_draw_series(fresh, COMPONENT_SHARD, 0)
            != _draw_series(fresh, COMPONENT_SHARD, 1))
    reseeded = StorageFaultInjector(
        _chaos(), 12, num_shards=3, num_partitions=2
    )
    baseline = StorageFaultInjector(
        _chaos(), 11, num_shards=3, num_partitions=2
    )
    assert (_draw_series(reseeded, COMPONENT_SHARD, 0)
            != _draw_series(baseline, COMPONENT_SHARD, 0))


def test_draws_on_one_component_leave_others_untouched():
    a = StorageFaultInjector(_chaos(), 7, num_shards=2, num_partitions=1)
    b = StorageFaultInjector(_chaos(), 7, num_shards=2, num_partitions=1)
    _draw_series(a, COMPONENT_SHARD, 0, n=500)  # burn shard 0's stream
    # Shard 1 and the partition are unperturbed.
    assert (_draw_series(a, COMPONENT_SHARD, 1)
            == _draw_series(b, COMPONENT_SHARD, 1))
    assert (_draw_series(a, COMPONENT_PARTITION, 0)
            == _draw_series(b, COMPONENT_PARTITION, 0))


def test_injected_counters_are_attributable():
    injector = StorageFaultInjector(
        _chaos(), 3, num_shards=2, num_partitions=2
    )
    _draw_series(injector, COMPONENT_SHARD, 1, n=400)
    _draw_series(injector, COMPONENT_PARTITION, 0, n=400)
    assert injector.injected_total() > 0
    for label in injector.injected:
        service, kind, placement = label.split(":")
        assert service in ("log", "store")
        assert kind in (FAULT_ERROR, FAULT_TIMEOUT, "netsplit")
        assert placement in ("shard=1", "partition=0")


def test_link_schedule_is_pure_function_of_seed():
    cfg = _chaos(partition_windows=6, partition_horizon_ms=4000.0)
    sched_a = LinkPartitionSchedule(cfg, 11, num_shards=3, num_partitions=2)
    sched_b = LinkPartitionSchedule(cfg, 11, num_shards=3, num_partitions=2)
    assert sched_a.windows == sched_b.windows
    assert len(sched_a) == 6
    sched_c = LinkPartitionSchedule(cfg, 12, num_shards=3, num_partitions=2)
    assert sched_a.windows != sched_c.windows
    for w in sched_a.windows:
        assert w.end_ms - w.start_ms == cfg.partition_window_ms
        if w.kind == COMPONENT_PARTITION:
            # There is no metalog↔partition link to sever.
            assert w.side == "worker"


def test_metalog_side_windows_sever_writes_only():
    cfg = _chaos(partition_windows=40, partition_horizon_ms=4000.0)
    sched = LinkPartitionSchedule(cfg, 5, num_shards=2, num_partitions=1)
    metalog_windows = [w for w in sched.windows if w.side == "metalog"]
    assert metalog_windows  # 40 windows: the 35% branch certainly fired
    w = metalog_windows[0]
    mid = (w.start_ms + w.end_ms) / 2
    assert sched.severed(mid, w.kind, w.component, is_write=True)
    assert not sched.severed(mid, w.kind, w.component, is_write=False)
    # Worker-side windows sever both directions.
    worker_windows = [
        w for w in sched.windows if w.side == "worker"
    ]
    w = worker_windows[0]
    mid = (w.start_ms + w.end_ms) / 2
    assert sched.severed(mid, w.kind, w.component, is_write=False)


def test_netsplit_draws_consume_no_rng():
    """A severed-link timeout must not perturb the per-component
    streams: draws made entirely inside windows consume nothing, so a
    post-horizon series matches a schedule-free injector from draw 0."""
    cfg = _chaos(partition_windows=8, partition_horizon_ms=1000.0,
                 partition_window_ms=100.0)
    windowed = StorageFaultInjector(cfg, 9, num_shards=2, num_partitions=1)
    w = next(x for x in windowed.schedule.windows
             if x.kind == COMPONENT_SHARD)
    mid = (w.start_ms + w.end_ms) / 2
    for _ in range(50):
        decision = windowed.draw(w.kind, w.component, mid, is_write=True)
        assert decision.kind == FAULT_TIMEOUT
    assert windowed.injected[f"log:netsplit:shard={w.component}"] == 50
    # Every window closes by the horizon; from there the windowed
    # injector's stream must sit where a plain one starts.
    plain = StorageFaultInjector(
        _chaos(), 9, num_shards=2, num_partitions=1
    )
    series_w = [
        windowed.draw(w.kind, w.component, 1000.0 + i, True).kind
        for i in range(100)
    ]
    series_p = [
        plain.draw(w.kind, w.component, 1000.0 + i, True).kind
        for i in range(100)
    ]
    assert series_w == series_p


def test_disabled_config_is_inert():
    injector = StorageFaultInjector(
        StorageChaosConfig(), 2, num_shards=2, num_partitions=2
    )
    assert not injector.enabled
    for i in range(100):
        decision = injector.draw(
            COMPONENT_SHARD, 0, now_ms=float(i), is_write=True
        )
        assert decision.kind is None
    assert injector.injected_total() == 0
