"""Unit tests for garbage collection (Section 4.5)."""

import pytest

from repro.runtime import instance_tag, object_tag
from tests.conftest import make_runtime


def rw(ctx, inp):
    value = ctx.read(inp["key"])
    ctx.write(inp["key"], inp["value"])
    return value


@pytest.fixture
def hm_read_runtime():
    runtime = make_runtime("halfmoon-read")
    runtime.populate("obj", "v0")
    runtime.register("rw", rw)
    return runtime


def test_step_logs_trimmed_after_finish(hm_read_runtime):
    runtime = hm_read_runtime
    result = runtime.invoke("rw", {"key": "obj", "value": "v1"})
    tag = instance_tag(result.instance_id)
    assert len(runtime.backend.log.read_stream(tag)) > 0
    stats = runtime.run_gc()
    assert runtime.backend.log.read_stream(tag) == []
    assert stats.step_log_records_trimmed > 0


def test_old_versions_collected_once_unobservable(hm_read_runtime):
    runtime = hm_read_runtime
    for i in range(5):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i + 1}"})
    mv = runtime.backend.mv
    assert mv.version_count("obj") == 6  # genesis + 5 writes
    stats = runtime.run_gc()
    # Only the newest version can still be observed (no SSF is running).
    assert mv.version_count("obj") == 1
    assert stats.versions_deleted == 5
    # The surviving version is the latest value.
    probe = runtime.invoke("rw", {"key": "obj", "value": "v6"})
    assert probe.output == "v5"


def test_latest_version_always_survives(hm_read_runtime):
    runtime = hm_read_runtime
    runtime.invoke("rw", {"key": "obj", "value": "v1"})
    runtime.run_gc()
    tag = object_tag("obj")
    records = runtime.backend.log.read_stream(tag)
    assert len(records) == 1
    assert records[0]["version"] in (
        runtime.backend.mv.list_versions("obj")
    )


def test_running_ssf_blocks_collection(hm_read_runtime):
    runtime = hm_read_runtime
    # A session that started early is still running.
    early = runtime.open_session().init()
    for i in range(4):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i + 1}"})
    runtime.run_gc()
    # The early session's cursor must still resolve: versions visible at
    # its initial cursorTS survive.
    assert early.read("obj") == "v0"
    early.finish()
    runtime.run_gc()
    assert runtime.backend.mv.version_count("obj") == 1


def test_gc_is_idempotent(hm_read_runtime):
    runtime = hm_read_runtime
    for i in range(3):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i}"})
    first = runtime.run_gc()
    deleted_after_first = first.versions_deleted
    second = runtime.run_gc()
    assert second.versions_deleted == deleted_after_first


def test_gc_under_halfmoon_write_trims_read_logs():
    runtime = make_runtime("halfmoon-write")
    runtime.populate("obj", "v0")
    runtime.register("rw", rw)
    for i in range(4):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i}"})
    log = runtime.backend.log
    live_before = log.live_record_count
    stats = runtime.run_gc()
    assert log.live_record_count < live_before
    assert stats.step_log_records_trimmed > 0
    # Halfmoon-write is single-version: nothing to collect in the store.
    assert stats.versions_deleted == 0
    assert runtime.backend.kv.get("obj") == "v3"


def test_gc_respects_boki_step_logs():
    runtime = make_runtime("boki")
    runtime.populate("obj", "v0")
    runtime.register("rw", rw)
    runtime.invoke("rw", {"key": "obj", "value": "v1"})
    runtime.run_gc()
    # After GC the whole step log is gone but the object remains.
    assert runtime.backend.kv.get("obj") == "v1"


def test_gc_stats_accumulate(hm_read_runtime):
    runtime = hm_read_runtime
    runtime.invoke("rw", {"key": "obj", "value": "v1"})
    runtime.run_gc()
    runtime.invoke("rw", {"key": "obj", "value": "v2"})
    stats = runtime.run_gc()
    assert stats.scans == 2
    assert stats.last_safe_seqnum > 0


def test_orphaned_ssf_blocks_collection(hm_read_runtime):
    """Regression (node recovery × GC): an invocation orphaned by a node
    crash must pin the GC frontier exactly like a running one — the
    takeover replay still reads the versions its init cursorTS could
    observe."""
    runtime = hm_read_runtime
    early = runtime.open_session().init()
    for i in range(4):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i + 1}"})
    # The hosting node dies: the session is orphaned, not finished.
    runtime.tracker.mark_orphaned(early.env.instance_id)
    runtime.run_gc()
    # The orphan's observable version must have survived collection.
    assert early.read("obj") == "v0"

    # A survivor reclaims and finishes it; only then may GC trim.
    runtime.tracker.reclaim(early.env.instance_id)
    early.finish()
    runtime.run_gc()
    assert runtime.backend.mv.version_count("obj") == 1


def test_finished_orphan_releases_gc_frontier(hm_read_runtime):
    """Contrast case: once the orphan is finished the frontier advances
    and its old versions are collected."""
    runtime = hm_read_runtime
    early = runtime.open_session().init()
    for i in range(3):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i + 1}"})
    runtime.tracker.mark_orphaned(early.env.instance_id)
    runtime.run_gc()
    assert runtime.backend.mv.version_count("obj") > 1
    runtime.tracker.finish(early.env.instance_id)
    runtime.run_gc()
    assert runtime.backend.mv.version_count("obj") == 1


def test_gc_checkpoints_durable_kv_partitions():
    """Each GC cycle checkpoints every live partition and truncates its
    redo journal — and skips down partitions, whose journal is exactly
    what the rebuild needs."""
    from repro import SystemConfig
    from repro.runtime import LocalRuntime

    cfg = (
        SystemConfig(seed=1234)
        .with_storage_plane(log_shards=2, kv_partitions=2)
        .with_storage_chaos()
        .validate()
    )
    runtime = LocalRuntime(cfg, protocol="halfmoon-read")
    runtime.register("rw", rw)
    runtime.populate("obj", "v0")
    runtime.invoke("rw", {"key": "obj", "value": "v1"})
    kv = runtime.backend.kv
    assert kv.durability
    assert any(kv.journal_length(i) > 0 for i in range(2))

    stats = runtime.run_gc()
    assert stats.kv_checkpoints == 2
    assert stats.kv_journal_truncated > 0
    assert all(kv.journal_length(i) == 0 for i in range(2))

    # A down partition keeps its journal across cycles.
    runtime.invoke("rw", {"key": "obj", "value": "v2"})
    busy = kv.partition_of("obj")
    before = kv.snapshot_partition(busy)
    kv.crash_partition(busy)
    length = kv.journal_length(busy)
    assert length > 0
    stats = runtime.run_gc()
    assert stats.kv_checkpoints == 3  # cumulative: only the live one ran
    assert kv.journal_length(busy) == length
    kv.rebuild_partition(busy)
    from repro.storageplane import diff_partition_snapshots
    assert diff_partition_snapshots(
        before, kv.snapshot_partition(busy)
    ) == []


def test_gc_skips_down_shards_and_retries_later():
    """A down log shard must not crash the collector: its streams are
    skipped this cycle and trimmed after the rebuild."""
    from repro import SystemConfig
    from repro.runtime import LocalRuntime

    cfg = (
        SystemConfig(seed=1234)
        .with_storage_plane(log_shards=2, kv_partitions=2)
        .with_storage_chaos()
        .validate()
    )
    runtime = LocalRuntime(cfg, protocol="halfmoon-read")
    runtime.register("rw", rw)
    runtime.populate("obj", "v0")
    for i in range(3):
        runtime.invoke("rw", {"key": "obj", "value": f"v{i + 1}"})
    log = runtime.backend.log
    log.crash_shard_replica(0)
    stats_degraded = runtime.run_gc()  # must not raise
    log.rebuild_shard(0)
    runtime.run_gc()
    total = (stats_degraded.step_log_records_trimmed
             + runtime.gc.stats.step_log_records_trimmed)
    assert total >= 0  # both cycles completed
    from repro.storageplane.audit import audit_sharded_log
    assert audit_sharded_log(log) == []
