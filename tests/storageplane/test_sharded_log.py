"""ShardedLog: one shard and four answer alike, multi-shard routing,
and cross-shard trim isolation (the metalog owns refcounts/frontiers)."""

import numpy as np
import pytest

from repro.errors import (
    ConditionalAppendError,
    LogError,
    ProtocolError,
    TrimmedError,
)
from repro.storageplane import Metalog, ShardedLog


# ---------------------------------------------------------------------------
# Shard-count parity: one shard (the monolithic log) and four agree
# ---------------------------------------------------------------------------


def _random_ops(seed, ops=400, tags=8):
    """A deterministic op script touching appends/reads/trims."""
    rng = np.random.default_rng(seed)
    script = []
    for _ in range(ops):
        tag = f"t{int(rng.integers(0, tags))}"
        other = f"t{int(rng.integers(0, tags))}"
        roll = rng.random()
        if roll < 0.45:
            script.append(("append", [tag, other], int(rng.integers(0, 99))))
        elif roll < 0.65:
            script.append(("read_prev", tag, int(rng.integers(0, 500))))
        elif roll < 0.80:
            script.append(("read_next", tag, int(rng.integers(0, 500))))
        elif roll < 0.90:
            script.append(("read_stream", tag))
        else:
            script.append(("trim", tag, int(rng.integers(0, 300))))
    return script


def _apply(log, op):
    kind = op[0]
    try:
        if kind == "append":
            return ("ok", log.append(op[1], {"n": 1}, payload_bytes=op[2]))
        if kind == "read_prev":
            r = log.read_prev(op[1], op[2])
            return ("ok", None if r is None else r.seqnum)
        if kind == "read_next":
            r = log.read_next(op[1], op[2])
            return ("ok", None if r is None else r.seqnum)
        if kind == "read_stream":
            return ("ok", [r.seqnum for r in log.read_stream(op[1])])
        if kind == "trim":
            return ("ok", log.trim(op[1], op[2]))
    except (LogError, TrimmedError) as exc:
        return (type(exc).__name__, str(exc))
    raise AssertionError(f"unknown op {kind}")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_shard_and_four_agree_on_every_op_and_counter(seed):
    mono = ShardedLog(shards=1)
    sharded = ShardedLog(shards=4)
    byte_trace_mono, byte_trace_sharded = [], []
    for op in _random_ops(seed):
        assert _apply(mono, op) == _apply(sharded, op)
        byte_trace_mono.append(mono.storage_bytes())
        byte_trace_sharded.append(sharded.storage_bytes())
    assert byte_trace_mono == byte_trace_sharded
    assert mono.storage_bytes() == sharded.storage_bytes()
    assert mono.next_seqnum == sharded.next_seqnum
    # Shard-major order on four shards: compare the sets.
    assert sorted(mono.stream_tags()) == sorted(sharded.stream_tags())
    assert mono.append_count == sharded.append_count
    assert mono.trim_count == sharded.trim_count
    assert mono.live_record_count == sharded.live_record_count


@pytest.mark.parametrize("seed", [0, 1])
def test_shard_count_never_changes_what_the_log_answers(seed):
    """Placement is invisible to callers: one shard and four answer
    every operation, error and byte total identically."""
    one, four = ShardedLog(shards=1), ShardedLog(shards=4)
    for op in _random_ops(seed):
        assert _apply(one, op) == _apply(four, op)
        assert one.storage_bytes() == four.storage_bytes()
    assert sorted(one.stream_tags()) == sorted(four.stream_tags())
    assert one.live_record_count == four.live_record_count
    assert sum(four.shard_bytes(i) for i in range(4)) == (
        four.storage_bytes()
    )


def test_one_shard_and_four_agree_on_cond_append():
    mono, sharded = ShardedLog(shards=1), ShardedLog(shards=4)
    for log in (mono, sharded):
        log.append(["s"], {"step": 0})
    for log in (mono, sharded):
        with pytest.raises(ConditionalAppendError) as exc_info:
            log.cond_append(["s"], {"step": 0}, "s", 0)
        assert exc_info.value.existing_seqnum == 1
    for log in (mono, sharded):
        with pytest.raises(ProtocolError):
            log.cond_append(["s"], {"step": 9}, "s", 9)
    assert (mono.cond_append(["s"], {"step": 1}, "s", 1)
            == sharded.cond_append(["s"], {"step": 1}, "s", 1))


# ---------------------------------------------------------------------------
# Multi-shard behaviour
# ---------------------------------------------------------------------------


def test_seqnums_are_globally_monotone_across_shards():
    log = ShardedLog(shards=4)
    seqnums = [
        log.append([f"tag-{i}"], {"i": i}) for i in range(50)
    ]
    assert seqnums == list(range(1, 51))
    homes = {log.shard_of(f"tag-{i}") for i in range(50)}
    assert homes == {0, 1, 2, 3}


def test_record_body_accounted_once_on_home_shard():
    log = ShardedLog(meta_bytes=10, shards=4)
    tag_a, tag_b = "alpha", "delta"
    assert log.shard_of(tag_a) != log.shard_of(tag_b)
    log.append([tag_a, tag_b], {"x": 1}, payload_bytes=90)
    # Body homed on the first tag's shard, once.
    assert log.shard_bytes(log.shard_of(tag_a)) == 100
    assert log.shard_bytes(log.shard_of(tag_b)) == 0
    assert log.storage_bytes() == 100


def test_trim_on_shard_a_never_drops_records_on_shard_b():
    """The cross-shard trim-isolation regression (metalog refcounts)."""
    log = ShardedLog(shards=4)
    tag_a, tag_b = "alpha", "delta"
    shard_a, shard_b = log.shard_of(tag_a), log.shard_of(tag_b)
    assert shard_a != shard_b
    # Records indexed by BOTH tags, so each lives on two shards.
    seqnums = [
        log.append([tag_a, tag_b], {"i": i}) for i in range(6)
    ]
    assert log.trim(tag_a, seqnums[-1]) == 6
    # Shard A's frontier advanced; shard B's did not.
    assert log.metalog.shard_frontier(shard_a) == seqnums[-1]
    assert log.metalog.shard_frontier(shard_b) == 0
    # Every record is still fully readable through shard B's stream.
    assert [r.seqnum for r in log.read_stream(tag_b)] == seqnums
    assert log.read_prev(tag_b, seqnums[-1]).seqnum == seqnums[-1]
    assert log.live_record_count == 6
    # Only after shard B also trims are the bodies freed.
    assert log.trim(tag_b, seqnums[-1]) == 6
    assert log.live_record_count == 0
    assert log.storage_bytes() == 0
    assert log.metalog.shard_frontier(shard_b) == seqnums[-1]


def test_shard_storage_listener_fires_per_shard():
    log = ShardedLog(meta_bytes=10, shards=4)
    tag = "alpha"
    log.append([tag], {"x": 1}, payload_bytes=40)
    # Only the record's home shard moved, by the record's size.
    assert [log.shard_bytes(i) for i in range(4)] == [
        50 if i == log.shard_of(tag) else 0 for i in range(4)
    ]
    assert log.storage_bytes() == 50


def test_shard_stats_shape():
    log = ShardedLog(shards=2)
    log.append(["a"], {"x": 1})
    stats = log.shard_stats()
    assert [s["shard"] for s in stats] == [0, 1]
    assert sum(s["homed_records"] for s in stats) == 1
    assert all("trim_frontier" in s for s in stats)


def test_metalog_release_without_refs_is_an_error():
    meta = Metalog()
    with pytest.raises(LogError):
        meta.release_ref(7)
