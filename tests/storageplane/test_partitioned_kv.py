"""PartitionedKV: single-partition parity with KVStore, multi-partition
routing/colocation, and the multi-version layer running unchanged on top."""

from repro.errors import StoreError
from repro.store import GENESIS_VERSION, KVStore, MultiVersionStore
from repro.storageplane import PartitionedKV


def _script(store):
    results = []
    store.put("a", 1, value_bytes=10)
    store.put("b", 2, value_bytes=10)
    results.append(store.get("a"))
    results.append(store.get_with_version("b"))
    results.append(store.conditional_put("a", 5, (3, 0), value_bytes=10))
    results.append(store.conditional_put("a", 6, (0, 0), value_bytes=10))
    store.set_version("b", (9, 1))
    results.append(store.get_with_version("b"))
    results.append(store.delete("b"))
    results.append(store.delete("missing"))
    results.append(sorted(store.keys()))
    results.append(len(store))
    results.append("a" in store)
    results.append(store.storage_bytes())
    results.append(
        (store.read_count, store.write_count, store.conditional_rejections)
    )
    try:
        store.get("missing")
    except StoreError as exc:
        results.append(str(exc))
    return results


def test_single_partition_parity_with_kvstore():
    assert _script(KVStore()) == _script(PartitionedKV(partitions=1))


def test_single_partition_preserves_key_iteration_order():
    plain, part = KVStore(), PartitionedKV(partitions=1)
    for store in (plain, part):
        for key in ("z", "a", "m@v1", "m"):
            store.put(key, 0)
    assert list(plain.keys()) == list(part.keys())


def test_keys_route_deterministically_and_colocate_versions():
    kv = PartitionedKV(partitions=4)
    home = kv.partition_of("obj:7")
    assert kv.partition_of("obj:7@genesis") == home
    assert kv.partition_of("obj:7@seal.12") == home
    kv.put("obj:7", "latest")
    kv.put("obj:7@genesis", "v0")
    stats = kv.partition_stats()
    assert stats[home]["keys"] == 2
    assert sum(s["keys"] for s in stats) == 2


def test_counters_and_bytes_sum_over_partitions():
    kv = PartitionedKV(partitions=4)
    for i in range(20):
        kv.put(f"k{i}", i, value_bytes=8)
    for i in range(20):
        assert kv.get(f"k{i}") == i
    assert kv.read_count == 20
    assert kv.write_count == 20
    assert kv.storage_bytes() == sum(
        kv.partition_bytes(i) for i in range(4)
    )
    assert len(kv) == 20
    assert sorted(kv.keys()) == sorted(f"k{i}" for i in range(20))


def test_partition_storage_listener_reports_the_touched_partition():
    kv = PartitionedKV(partitions=4)
    kv.put("hello", 1, value_bytes=30)
    home = kv.partition_of("hello")
    assert [kv.partition_bytes(i) for i in range(4)] == [
        30 if i == home else 0 for i in range(4)
    ]


def test_aggregate_storage_listener_sees_totals():
    kv = PartitionedKV(partitions=2)
    totals = []
    kv.put("x", 1, value_bytes=10)
    totals.append(kv.storage_bytes())
    kv.put("y", 2, value_bytes=10)
    totals.append(kv.storage_bytes())
    # Aggregate totals after each write, regardless of which partition
    # absorbed it; replace, conditional write and delete keep the
    # running total equal to the partitions' sum.
    assert totals == [10, 20]
    kv.put("x", 1, value_bytes=25)
    assert kv.conditional_put("y", 3, (1, 0), value_bytes=5)
    assert not kv.conditional_put("y", 4, (1, 0), value_bytes=50)
    assert kv.storage_bytes() == 30
    assert kv.delete("x") and not kv.delete("x")
    assert kv.storage_bytes() == 5 == sum(
        kv.partition_bytes(i) for i in range(2)
    )


def test_multiversion_store_works_over_partitions():
    kv = PartitionedKV(partitions=4)
    mv = MultiVersionStore(kv)
    mv.write_version("acct", "genesis", 0)
    mv.write_version("acct", "5.1", 100)
    assert mv.read_version("acct", "genesis") == 0
    assert mv.read_version("acct", "5.1") == 100
    assert sorted(mv.list_versions("acct")) == ["5.1", "genesis"]
    assert mv.delete_version("acct", "genesis") is True
    # The genesis marker is re-exported unchanged through the plane.
    from repro.storageplane import GENESIS_VERSION as PLANE_GENESIS
    assert PLANE_GENESIS == GENESIS_VERSION


def test_conditional_put_is_single_partition_and_versioned():
    kv = PartitionedKV(partitions=4)
    kv.put("k", "v0")
    assert kv.conditional_put("k", "v1", (5, 0)) is True
    assert kv.conditional_put("k", "v2", (2, 0)) is False
    assert kv.conditional_rejections == 1
    assert kv.get_with_version("k") == ("v1", (5, 0))
