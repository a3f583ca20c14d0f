"""A cost-trace entry's placement is where the substrate put the op.

``storageplane/routing.py`` promises that the DES queues an append at
the same station the substrate charged it to: the station index is the
placement the services layer records, so it must be the shard (or
partition) whose bytes the operation grew.
"""

from repro.config import SystemConfig
from repro.runtime import ServiceBackend
from repro.runtime.services import Cost, InstanceServices


def _services():
    backend = ServiceBackend(
        SystemConfig(seed=9).with_storage_plane(log_shards=4,
                                                kv_partitions=4)
    )
    return backend, InstanceServices(backend)


def test_log_append_placement_is_the_shard_whose_bytes_grew():
    backend, svc = _services()
    log = backend.log
    hit = set()
    for i in range(64):
        before = [log.shard_bytes(s) for s in range(4)]
        svc.log_append([f"step-{i}"], {"op": "write"}, payload_bytes=8)
        kind, _ms, placement = svc.trace.entries[-1]
        assert kind == Cost.LOG_APPEND
        assert placement.__class__ is int
        grew = [s for s in range(4) if log.shard_bytes(s) != before[s]]
        assert grew == [placement]
        hit.add(placement)
    assert hit == {0, 1, 2, 3}


def test_db_write_placement_is_the_partition_whose_bytes_grew():
    backend, svc = _services()
    kv = backend.kv
    hit = set()
    for i in range(64):
        before = [kv.partition_bytes(p) for p in range(4)]
        svc.db_write(f"key-{i}", i)
        kind, _ms, placement = svc.trace.entries[-1]
        assert kind == Cost.DB_WRITE
        assert placement.__class__ is int
        grew = [p for p in range(4) if kv.partition_bytes(p) != before[p]]
        assert grew == [placement]
        hit.add(placement)
    assert hit == {0, 1, 2, 3}


def test_one_shard_places_everything_at_zero():
    backend = ServiceBackend(SystemConfig(seed=9))
    svc = InstanceServices(backend)
    svc.log_append(["step"], {"op": "write"})
    svc.db_write("key", 1)
    assert [entry[2] for entry in svc.trace.entries] == [0, 0]
