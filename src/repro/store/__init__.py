"""External-state substrate: KV store, multi-versioning, table snapshots."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".kv": ("GENESIS_VERSION", "KVStore", "StoredObject"),
    ".table": ("TableIndex", "TableSnapshotReader"),
    ".versioned": ("MultiVersionStore", "split_version_key", "version_key"),
})

__all__ = [
    "GENESIS_VERSION",
    "KVStore",
    "MultiVersionStore",
    "StoredObject",
    "TableIndex",
    "TableSnapshotReader",
    "split_version_key",
    "version_key",
]
