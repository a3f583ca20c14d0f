"""The one storage plane: the topology sizes it and the router places
onto it, the ``backend=`` no-op, and the architectural invariant that
protocol code never binds to a concrete storage class."""

import ast
import pathlib

import pytest

import repro.protocols as protocols_pkg
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.runtime import ServiceBackend
from repro.storageplane import (
    PartitionedKV,
    ShardedLog,
    StoragePlane,
    build_storage_plane,
)


@pytest.mark.parametrize("storage, chaos", [
    ({}, False),
    ({"log_shards": 4}, False),
    ({"log_shards": 2, "kv_partitions": 3, "replication": 3}, False),
    ({"sequencer": "batched"}, False),
    ({}, True),
])
def test_topology_sizes_the_one_plane(storage, chaos):
    """Every topology builds the one substrate; it only sets the counts
    the router places onto (at one shard every key routes to 0)."""
    config = SystemConfig().with_storage_plane(**storage)
    if chaos:
        config = config.with_storage_chaos(shard_error_rate=0.01)
    plane = build_storage_plane(config)
    assert type(plane) is StoragePlane
    assert isinstance(plane.log, ShardedLog)
    assert isinstance(plane.kv, PartitionedKV)
    shards = storage.get("log_shards", 1)
    partitions = storage.get("kv_partitions", 1)
    assert plane.num_log_shards == plane.log.num_shards == shards
    assert plane.num_kv_partitions == plane.kv.num_partitions == partitions
    tags = [f"t{i}" for i in range(64)]
    assert {plane.log_shard_of(t) for t in tags} == set(range(shards))
    assert {plane.kv_partition_of(t) for t in tags} == set(
        range(partitions)
    )


def test_explicit_backend_overrides_auto():
    """``backend="sharded"`` names the one substrate: it builds the
    sharded machinery at the default 1x1 topology."""
    config = SystemConfig().with_storage_plane(backend="sharded")
    plane = build_storage_plane(config)
    assert type(plane) is StoragePlane
    assert isinstance(plane.log, ShardedLog)
    assert isinstance(plane.kv, PartitionedKV)
    assert plane.num_log_shards == 1
    assert plane.num_kv_partitions == 1


def test_unknown_backend_rejected():
    """``backend=`` survives only as a no-op for the frozen benchmark
    cells: ``auto`` / ``sharded`` change nothing, anything else raises."""
    for value in ("auto", "sharded"):
        assert SystemConfig().with_storage_plane(backend=value) == (
            SystemConfig()
        )
    with pytest.raises(ConfigError, match="unknown storage backend "
                                          "'bogus'"):
        SystemConfig().with_storage_plane(backend="bogus")


def test_single_backend_is_gone():
    with pytest.raises(ConfigError, match="'single'"):
        SystemConfig().with_storage_plane(backend="single")


def test_describe_snapshots_topology():
    for storage in ({}, {"log_shards": 2, "kv_partitions": 3}):
        plane = build_storage_plane(
            SystemConfig().with_storage_plane(**storage)
        )
        shards = storage.get("log_shards", 1)
        partitions = storage.get("kv_partitions", 1)
        assert plane.describe() == {
            "log_shards": shards,
            "kv_partitions": partitions,
            "shard_bytes": [0] * shards,
            "partition_bytes": [0] * partitions,
            "trim_frontiers": plane.log.shard_trim_frontiers(),
        }


def test_service_backend_binds_through_the_plane():
    backend = ServiceBackend(
        SystemConfig().with_storage_plane(log_shards=2, kv_partitions=2)
    )
    assert backend.log is backend.plane.log
    assert backend.kv is backend.plane.kv
    assert backend.mv is backend.plane.mv
    # Placement is the plane's router, bound once: a plain index.
    assert backend.log_shard_of == backend.plane.log_shard_of
    assert backend.kv_partition_of == backend.plane.kv_partition_of
    assert backend.log_shard_of("t") == backend.log.shard_of("t")
    assert backend.kv_partition_of("k") == backend.kv.partition_of("k")
    default = ServiceBackend(SystemConfig())
    assert default.log_shard_of("t") == 0
    assert default.kv_partition_of("k") == 0


def test_storage_plane_probe_registered():
    backend = ServiceBackend(SystemConfig())
    snapshot = backend.metrics.snapshot()
    probe = snapshot["storage_plane"]
    assert probe["log_shards"] == 1
    assert probe["shard_bytes"] == [0]
    assert "backend" not in probe


def test_no_protocol_module_imports_concrete_storage():
    """Architectural invariant: ``repro.protocols`` binds to the
    storage-plane interface, never to SharedLog/KVStore/... directly."""
    forbidden = {
        "repro.storageplane.sharded_log", "repro.store.kv",
        "repro.store.versioned",
    }
    forbidden_names = {"SharedLog", "KVStore", "MultiVersionStore",
                       "ShardedLog", "PartitionedKV"}
    package_dir = pathlib.Path(protocols_pkg.__file__).parent
    for path in package_dir.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                resolved = (
                    "repro." + module.lstrip(".") if node.level else module
                )
                assert resolved not in forbidden, (
                    f"{path.name} imports concrete storage {resolved}"
                )
                for alias in node.names:
                    assert alias.name not in forbidden_names, (
                        f"{path.name} imports {alias.name}"
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name not in forbidden, (
                        f"{path.name} imports {alias.name}"
                    )
