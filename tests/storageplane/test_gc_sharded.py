"""GC over the sharded plane: per-shard trim frontiers from the metalog,
and the regression that trimming shard A never drops shard B's records."""

from repro.config import SystemConfig
from repro.runtime import LocalRuntime, instance_tag, object_tag
from repro.storageplane import ShardedLog


def rw(ctx, inp):
    value = ctx.read(inp["key"])
    ctx.write(inp["key"], inp["value"])
    return value


def reader(ctx, inp):
    return ctx.read(inp["key"])


def _sharded_runtime(protocol="halfmoon-read", shards=4, partitions=4):
    config = SystemConfig(seed=21).with_storage_plane(
        log_shards=shards, kv_partitions=partitions
    )
    runtime = LocalRuntime(config, protocol=protocol)
    runtime.register("rw", rw)
    runtime.register("reader", reader)
    return runtime


def test_gc_reports_per_shard_frontiers():
    runtime = _sharded_runtime()
    for key in ("acct", "cart", "user", "item"):
        runtime.populate(key, "v0")
    for i in range(12):
        key = ("acct", "cart", "user", "item")[i % 4]
        runtime.invoke("rw", {"key": key, "value": f"v{i}"})
    stats = runtime.run_gc()
    assert stats.total_trimmed() > 0
    assert stats.shard_frontiers  # sharded plane publishes frontiers
    log = runtime.backend.log
    assert stats.shard_frontiers == log.shard_trim_frontiers()
    # Frontier values are real seqnums from this run.
    assert all(0 < f < log.next_seqnum
               for f in stats.shard_frontiers.values())


def test_gc_on_default_plane_has_no_frontiers():
    """The default (unlabelled 1×1) plane runs the same log, so the GC
    publishes its one shard's frontier — no per-shard frontiers beyond
    shard 0."""
    runtime = LocalRuntime(SystemConfig(seed=21), protocol="halfmoon-read")
    runtime.register("rw", rw)
    runtime.populate("acct", "v0")
    runtime.invoke("rw", {"key": "acct", "value": "v1"})
    stats = runtime.run_gc()
    log = runtime.backend.log
    assert stats.step_log_records_trimmed > 0
    assert stats.shard_frontiers == {0: log.shard_trim_frontiers()[0]}
    assert 0 < stats.shard_frontiers[0] < log.next_seqnum


def test_instance_trim_on_one_shard_preserves_object_logs_elsewhere():
    """The cross-layer regression: finished-SSF trims (instance streams,
    their shards) must not reclaim object write-log records other shards
    still serve — the metalog refcount keeps bodies alive."""
    runtime = _sharded_runtime(protocol="boki")
    log = runtime.backend.log
    assert isinstance(log, ShardedLog)
    runtime.populate("acct", 0)
    runtime.invoke("rw", {"key": "acct", "value": 5})
    obj_tag = object_tag("acct")
    before = [r.seqnum for r in log.read_stream(obj_tag)]
    assert before  # the write went to the object log
    stats = runtime.run_gc()
    # Instance streams were trimmed on their shards...
    assert stats.step_log_records_trimmed > 0
    # ...but the object stream still serves its surviving records and
    # the latest state is intact.
    assert log.read_prev(obj_tag, log.tail_seqnum) is not None
    assert all(frontier <= log.tail_seqnum
               for frontier in stats.shard_frontiers.values())
    value = runtime.invoke("reader", {"key": "acct"}).output
    assert value == 5


def test_direct_cross_shard_trim_isolation_via_gc_machinery():
    """Trim instance streams shard by shard; records co-tagged on other
    shards survive until *their* streams trim (metalog-owned refcounts)."""
    runtime = _sharded_runtime()
    log = runtime.backend.log
    inst_a, inst_b = "aaaa", "dddd"
    tag_a, tag_b = instance_tag(inst_a), instance_tag(inst_b)
    home, other = log.shard_of(tag_a), log.shard_of(tag_b)
    assert home != other
    seqnums = [
        log.append([tag_a, tag_b], {"step": i}, payload_bytes=100)
        for i in range(5)
    ]
    size = 5 * (SystemConfig().storage.meta_bytes + 100)
    live_before = log.live_record_count
    total_before = log.storage_bytes()
    home_before, other_before = log.shard_bytes(home), log.shard_bytes(other)
    # Bodies are homed on the first tag's shard only.
    assert home_before >= size
    assert log.trim(tag_a, log.tail_seqnum) == 5
    assert [r.seqnum for r in log.read_stream(tag_b)] == seqnums
    assert log.live_record_count == live_before  # no body freed yet
    assert log.storage_bytes() == total_before
    assert log.shard_bytes(home) == home_before
    # The last reference goes on tag_b's shard; the bytes leave the
    # bodies' home shard (tag_a's), not the shard that trimmed.
    assert log.trim(tag_b, log.tail_seqnum) == 5
    assert log.read_stream(tag_b) == []
    assert log.live_record_count == live_before - 5
    assert log.storage_bytes() == total_before - size
    assert log.shard_bytes(home) == home_before - size
    assert log.shard_bytes(other) == other_before
