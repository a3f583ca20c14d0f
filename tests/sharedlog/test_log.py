"""Unit tests for the shared log: appends, sub-streams, reads, trim."""

import pytest

from repro.errors import LogError, TrimmedError
from repro.sharedlog import SharedLog


@pytest.fixture
def log():
    return SharedLog(meta_bytes=48)


def test_seqnums_monotonically_increase(log):
    seqs = [log.append(["t"], {"i": i}) for i in range(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5
    assert log.tail_seqnum == seqs[-1]
    assert log.next_seqnum == seqs[-1] + 1


def test_append_requires_tags(log):
    with pytest.raises(LogError):
        log.append([], {"x": 1})


def test_read_prev_returns_latest_at_or_before(log):
    s1 = log.append(["k"], {"v": 1})
    s2 = log.append(["k"], {"v": 2})
    assert log.read_prev("k", s2)["v"] == 2
    assert log.read_prev("k", s2 - 1)["v"] == 1
    assert log.read_prev("k", s1)["v"] == 1


def test_read_prev_none_before_first_record(log):
    s1 = log.append(["k"], {"v": 1})
    assert log.read_prev("k", s1 - 1) is None
    assert log.read_prev("unknown", 100) is None


def test_read_next_returns_earliest_at_or_after(log):
    s1 = log.append(["k"], {"v": 1})
    s2 = log.append(["k"], {"v": 2})
    assert log.read_next("k", s1)["v"] == 1
    assert log.read_next("k", s1 + 1)["v"] == 2
    assert log.read_next("k", s2 + 1) is None
    assert log.read_next("unknown", 0) is None


def test_substreams_share_total_order(log):
    log.append(["a"], {"v": 1})
    log.append(["b"], {"v": 2})
    log.append(["a", "b"], {"v": 3})
    a = [r["v"] for r in log.read_stream("a")]
    b = [r["v"] for r in log.read_stream("b")]
    assert a == [1, 3]
    assert b == [2, 3]


def test_read_stream_with_min_seqnum(log):
    seqs = [log.append(["s"], {"i": i}) for i in range(4)]
    records = log.read_stream("s", min_seqnum=seqs[2])
    assert [r["i"] for r in records] == [2, 3]


def test_multi_tag_record_counted_once_in_storage(log):
    log.append(["a", "b", "c"], {"v": 1}, payload_bytes=100)
    assert log.storage_bytes() == 48 + 100
    assert log.live_record_count == 1


def test_trim_removes_prefix(log):
    seqs = [log.append(["s"], {"i": i}) for i in range(5)]
    removed = log.trim("s", seqs[2])
    assert removed == 3
    assert [r["i"] for r in log.read_stream("s")] == [3, 4]


def test_trim_unknown_tag_is_noop(log):
    assert log.trim("nope", 100) == 0


def test_trim_frees_storage_only_when_all_tags_trimmed(log):
    log.append(["a", "b"], {"v": 1}, payload_bytes=10)
    before = log.storage_bytes()
    log.trim("a", log.tail_seqnum)
    assert log.storage_bytes() == before  # still live via tag "b"
    log.trim("b", log.tail_seqnum)
    assert log.storage_bytes() == 0
    assert log.live_record_count == 0


def test_read_prev_into_trimmed_region_raises(log):
    seqs = [log.append(["s"], {"i": i}) for i in range(3)]
    log.trim("s", seqs[1])
    with pytest.raises(TrimmedError):
        log.read_prev("s", seqs[0])
    # Reads at or after the surviving record still work.
    assert log.read_prev("s", seqs[2])["i"] == 2


def test_stream_length_includes_trimmed(log):
    seqs = [log.append(["s"], {"i": i}) for i in range(4)]
    log.trim("s", seqs[1])
    assert log.stream_length("s") == 4
    assert log.stream_length("other") == 0


def test_storage_listener_fires_on_append_and_trim(log):
    # The byte counter is what a sampler reads after each mutation.
    observed = []
    log.append(["s"], {}, payload_bytes=10)
    observed.append(log.storage_bytes())
    log.trim("s", log.tail_seqnum)
    observed.append(log.storage_bytes())
    assert observed == [58, 0]


def test_append_and_trim_counts(log):
    for i in range(3):
        log.append(["s"], {"i": i})
    log.trim("s", log.tail_seqnum)
    assert log.append_count == 3
    assert log.trim_count == 3


def test_stream_tags_lists_all(log):
    log.append(["x", "y"], {})
    assert set(log.stream_tags()) == {"x", "y"}
