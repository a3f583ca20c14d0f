"""Services-level epoch fencing: a fenced append triggers leader
rediscovery (not blind backoff), applies exactly once, and stale node
caches are evicted on shard failover."""

import pytest

from repro import SystemConfig
from repro.errors import (
    FencedEpochError,
    ServiceUnavailableError,
    StorageUnavailableError,
)
from repro.faults.retry import MAX_REDISCOVERIES
from repro.runtime import Cost, InstanceServices, ServiceBackend


def _chaos_backend(seed=5, **chaos):
    cfg = (
        SystemConfig(seed=seed)
        .with_storage_plane(log_shards=2, kv_partitions=2)
        .with_storage_chaos(**chaos)
    )
    return ServiceBackend(cfg.validate())


@pytest.fixture
def backend():
    # Chaos armed with zero fault rates: the epoch view and fencing
    # machinery are live, but no faults inject — runs stay deterministic.
    return _chaos_backend()


@pytest.fixture
def svc(backend):
    return InstanceServices(backend)


def test_chaos_arms_epoch_view_and_stamps_appends(svc, backend, monkeypatch):
    """A chaos-armed backend never takes the failure-free branch: every
    append reaches the log stamped with the worker's cached epoch."""
    assert backend.epoch_view is not None
    assert backend.storage_faults is not None
    stamps = []
    for method in ("append", "cond_append"):
        real = getattr(backend.log, method)

        def spy(*args, _real=real, _method=method, **kwargs):
            stamps.append((_method, kwargs.get("epoch")))
            return _real(*args, **kwargs)

        monkeypatch.setattr(backend.log, method, spy)

    svc.log_append(["t:a"], {"op": "one"})
    svc.log_cond_append(["t:a"], {"op": "two"}, "t:a", 1)

    # (cond_append lands through the log's own unstamped append.)
    epoch = backend.epoch_view.epoch
    assert stamps[:2] == [("append", epoch), ("cond_append", epoch)]


def test_fenced_append_rediscovers_and_applies_once(svc, backend):
    svc.log_append(["t:a"], {"op": "pre"})
    backend.log.crash_sequencer()
    backend.log.failover_sequencer()
    assert backend.epoch_view.stale  # the worker still holds epoch 1

    seqnum = svc.log_append(["t:a"], {"op": "post"})

    # The fence fired once, the append applied exactly once — retry
    # went through rediscovery, not the backoff schedule.
    assert backend.log.metalog.fenced_appends == 1
    assert backend.counters.get("epoch_rediscoveries") == 1
    assert backend.counters.get(Cost.LEADER_REDISCOVERY) == 1
    assert not backend.counters.get("service_retries")
    assert not backend.epoch_view.stale
    stream = backend.log.read_stream("t:a")
    assert [r.seqnum for r in stream][-1] == seqnum
    assert [r.data["op"] for r in stream] == ["pre", "post"]


def test_fence_during_cond_append_keeps_offsets(svc, backend):
    svc.log_cond_append(["s:x"], {"step": 0}, "s:x", 0)
    backend.log.crash_sequencer()
    backend.log.failover_sequencer()
    svc.log_cond_append(["s:x"], {"step": 1}, "s:x", 1)
    assert backend.log.stream_length("s:x") == 2
    assert backend.counters.get("epoch_rediscoveries") == 1


def test_leader_down_rides_the_retry_loop(svc, backend):
    backend.log.crash_sequencer()  # down, nobody fails over
    with pytest.raises(ServiceUnavailableError):
        svc.log_append(["t:a"], {"op": "x"})
    # Every attempt was rejected before effect and billed like a
    # timeout against the op's retry budget.
    assert (backend.counters.get("storage_unavailable_ops")
            == backend.config.resilience.max_attempts)
    assert backend.log.stream_length("t:a") == 0
    # Recovery: failover, rediscovery on the next op, back in business.
    backend.log.failover_sequencer()
    svc.log_append(["t:a"], {"op": "x"})
    assert backend.log.stream_length("t:a") == 1


def test_flapping_leader_is_bounded(svc, backend):
    """Rediscovery retries are bounded by MAX_REDISCOVERIES, not the
    ordinary retry budget — a flapping leader cannot loop forever."""
    real_append = backend.log.append
    fences = {"n": 0}

    def always_fenced(*args, **kwargs):
        fences["n"] += 1
        raise FencedEpochError(
            "stale", stale_epoch=1, current_epoch=2
        )

    backend.log.append = always_fenced
    try:
        with pytest.raises(ServiceUnavailableError) as exc_info:
            svc.log_append(["t:a"], {"op": "x"})
    finally:
        backend.log.append = real_append
    assert "flapping" in str(exc_info.value)
    assert fences["n"] == MAX_REDISCOVERIES + 1
    assert (backend.counters.get("epoch_rediscoveries")
            == MAX_REDISCOVERIES + 1)


def test_refresh_without_chaos_raises():
    backend = ServiceBackend(SystemConfig(seed=5))
    assert backend.epoch_view is None
    with pytest.raises(StorageUnavailableError):
        backend.refresh_log_epoch()


# ----------------------------------------------------------------------
# Satellite: stale record caches cannot survive a shard failover
# ----------------------------------------------------------------------

def _seqnums_on_shard(backend, shard, count=4):
    """Append until ``count`` records live on ``shard``; return them."""
    seqnums = []
    svc = InstanceServices(backend)
    i = 0
    while len(seqnums) < count:
        tag = f"c:{i}"
        if backend.log.shard_of(tag) == shard:
            seqnums.append(svc.log_append([tag], {"i": i}))
        i += 1
    return seqnums


def test_drop_shard_cache_evicts_only_that_shard(backend):
    on_zero = _seqnums_on_shard(backend, 0)
    on_one = _seqnums_on_shard(backend, 1)
    for seqnum in on_zero:
        assert backend.cache.contains(seqnum)

    evicted = backend.drop_shard_cache(0)

    assert evicted == len(on_zero)
    assert backend.counters.get("shard_cache_records_lost") == evicted
    # A post-failover read of shard-0 records cannot be served from the
    # stale node cache: every lookup misses and pays the storage trip.
    for seqnum in on_zero:
        assert not backend.cache.contains(seqnum)
        assert not backend.cache.lookup(seqnum, 0)
    # Shard 1's cache entries are untouched.
    for seqnum in on_one:
        assert backend.cache.contains(seqnum)


def test_stale_cache_cannot_serve_pre_epoch_read_after_failover(backend):
    """Regression: after an R=1 shard loss + rebuild, the rebuilt shard
    serves a *new* epoch of record placements; reads must go to storage,
    not to cache entries inserted before the crash."""
    svc = InstanceServices(backend)
    seqnums = _seqnums_on_shard(backend, 0, count=3)
    hits_before = backend.cache.hits

    backend.log.crash_shard_replica(0)
    backend.drop_shard_cache(0)  # what the chaos controller does
    backend.log.rebuild_shard(0)

    # The records are all readable (rebuilt from the durable tier)...
    record = svc.log_read_prev("c:0", 10_000)
    assert record is not None and record.seqnum in seqnums
    # ...but none were served out of the pre-crash cache.
    assert backend.cache.hits == hits_before
    assert backend.counters.get("shard_cache_records_lost") == len(seqnums)
