"""The one storage plane: placement labels from the topology, the two
backend values, and the architectural invariant that protocol code
never binds to a concrete storage class."""

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


def test_auto_selects_single_at_1x1():
    """The default plane is the one substrate, unlabelled at 1×1."""
    plane = build_storage_plane(SystemConfig())
    assert type(plane) is StoragePlane
    assert isinstance(plane.log, ShardedLog)
    assert isinstance(plane.kv, PartitionedKV)
    assert plane.labelled is False
    assert plane.num_log_shards == 1
    assert plane.num_kv_partitions == 1
    assert plane.log_shard_of("anything") == 0
    assert plane.kv_partition_of("anything") == 0


def test_auto_selects_sharded_when_scaled():
    config = SystemConfig().with_storage_plane(log_shards=4)
    plane = build_storage_plane(config)
    assert plane.labelled is True
    assert plane.num_log_shards == 4
    assert plane.num_kv_partitions == 1


@pytest.mark.parametrize("storage, chaos", [
    ({"replication": 3}, False),
    ({"sequencer": "batched"}, False),
    ({}, True),
])
def test_auto_labels_every_topology_but_the_plain_1x1(storage, chaos):
    config = SystemConfig().with_storage_plane(**storage)
    if chaos:
        config = config.with_storage_chaos(shard_error_rate=0.01)
    assert build_storage_plane(config).labelled is True


def test_explicit_backend_overrides_auto():
    config = SystemConfig().with_storage_plane(backend="sharded")
    plane = build_storage_plane(config)
    assert plane.labelled is True
    assert plane.num_log_shards == 1  # labelled, 1×1 topology


def test_unknown_backend_rejected():
    config = SystemConfig().with_storage_plane(backend="bogus")
    with pytest.raises(ConfigError, match="available: auto, sharded"):
        build_storage_plane(config)


def test_single_backend_is_gone():
    config = SystemConfig().with_storage_plane(backend="single")
    with pytest.raises(ConfigError, match="'single'; available: auto, "
                                          "sharded"):
        config.validate()
    with pytest.raises(ConfigError, match="'single'"):
        build_storage_plane(config)


def test_describe_snapshots_topology():
    single = build_storage_plane(SystemConfig())
    assert single.describe() == {
        "backend": "single", "log_shards": 1, "kv_partitions": 1,
    }
    sharded = build_storage_plane(
        SystemConfig().with_storage_plane(log_shards=2, kv_partitions=3)
    )
    info = sharded.describe()
    assert info["backend"] == "sharded"
    assert info["log_shards"] == 2
    assert info["kv_partitions"] == 3
    assert info["shard_bytes"] == [0, 0]
    assert info["partition_bytes"] == [0, 0, 0]


def test_service_backend_binds_through_the_plane():
    backend = ServiceBackend(
        SystemConfig().with_storage_plane(log_shards=2, kv_partitions=2)
    )
    assert backend.log is backend.plane.log
    assert backend.kv is backend.plane.kv
    assert backend.mv is backend.plane.mv
    assert backend.plane.labelled
    # Placement helpers label ops on labelled planes only.
    assert backend.log_placement("t")[0] == "shard"
    assert backend.kv_placement("k")[0] == "partition"
    default = ServiceBackend(SystemConfig())
    assert default.log_placement("t") is None
    assert default.kv_placement("k") is None


def test_storage_plane_probe_registered():
    backend = ServiceBackend(SystemConfig())
    snapshot = backend.metrics.snapshot()
    probe = snapshot["storage_plane"]
    assert probe["backend"] == "single"
    assert probe["log_shards"] == 1


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
