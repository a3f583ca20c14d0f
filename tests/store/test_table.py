"""Unit tests for table snapshots (Section 4.1 remark)."""

import pytest

from repro.tags import object_tag
from repro.sharedlog import SharedLog
from repro.store import (
    KVStore,
    MultiVersionStore,
    TableIndex,
    TableSnapshotReader,
)


@pytest.fixture
def setup():
    log = SharedLog()
    mv = MultiVersionStore(KVStore())
    index = TableIndex()
    reader = TableSnapshotReader(log, mv, index)
    return log, mv, index, reader


def commit_write(log, mv, key, version, value):
    mv.write_version(key, version, value)
    return log.append(
        [object_tag(key)], {"op": "write", "key": key, "version": version}
    )


def test_snapshot_sees_only_writes_up_to_timestamp(setup):
    log, mv, index, reader = setup
    index.register("accounts", "acct1")
    index.register("accounts", "acct2")
    s1 = commit_write(log, mv, "acct1", "v1", 100)
    s2 = commit_write(log, mv, "acct2", "v1", 200)
    s3 = commit_write(log, mv, "acct1", "v2", 150)

    # Snapshot between s2 and s3: acct1 still at 100.
    rows = reader.scan("accounts", max_seqnum=s2)
    assert rows == {"acct1": 100, "acct2": 200}

    # Snapshot at the tail sees the newer acct1.
    rows = reader.scan("accounts", max_seqnum=s3)
    assert rows == {"acct1": 150, "acct2": 200}


def test_unwritten_keys_omitted(setup):
    log, mv, index, reader = setup
    index.register("t", "present")
    index.register("t", "absent")
    s = commit_write(log, mv, "present", "v1", 1)
    assert reader.scan("t", s) == {"present": 1}


def test_snapshot_versions_returns_pointers(setup):
    log, mv, index, reader = setup
    index.register("t", "k")
    s = commit_write(log, mv, "k", "abc", 5)
    assert reader.snapshot_versions("t", s) == {"k": "abc"}


def test_aggregate(setup):
    log, mv, index, reader = setup
    for i in range(4):
        key = f"row{i}"
        index.register("t", key)
        s = commit_write(log, mv, key, "v1", i * 10)
    assert reader.aggregate("t", s, sum) == 60


def test_index_deduplicates(setup):
    _, _, index, _ = setup
    index.register("t", "k")
    index.register("t", "k")
    assert index.keys_of("t") == ["k"]
    assert index.tables() == ["t"]
    assert index.keys_of("missing") == []
