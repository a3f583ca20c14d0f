"""Pluggable storage plane: metalog + log shards + partitioned KV.

The runtime binds to :class:`StoragePlane`, never to concrete
substrates; :func:`build_storage_plane` selects the backend from
:class:`~repro.config.StorageSizeConfig` (``backend`` / ``log_shards``
/ ``kv_partitions`` / ``replication``).  ``single``
(the default at a 1×1 topology) is the paper-faithful configuration and
bit-identical to the pre-plane code; ``sharded`` scales the log into a
:class:`Metalog` + N :class:`LogShard` s and the store into M hash
partitions.

Every component is crashable and recoverable (see docs/PROTOCOLS.md,
"Storage failure model"): the sequencer fails over behind epoch fencing
(:mod:`~repro.storageplane.fencing`), shards replicate behind write
quorums (:mod:`~repro.storageplane.replication`) or rebuild from the
log at R=1, partitions rebuild from their redo journal, and
:func:`storage_consistency_report` audits the invariants afterwards.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".audit": ("diff_partition_snapshots", "storage_consistency_report"),
    ".base": ("GENESIS_VERSION", "StoragePlane"),
    ".fencing": ("EpochView", "Lease"),
    ".metalog": ("Metalog",),
    ".partitioned_kv": ("PartitionedKV",),
    ".plane": (
        "ShardedPlane", "SingleNodePlane", "available_backends",
        "build_storage_plane",
    ),
    ".replication": ("ShardReplicaSet",),
    ".routing": ("Router", "base_key", "stable_hash"),
    ".sequencer": (
        "BatchedSequencer", "LeasedBlock", "LeasedRangeSequencer",
        "MonolithSequencer", "Sequencer", "available_sequencers",
        "build_sequencer",
    ),
    ".sharded_log": ("LogShard", "ShardedLog"),
})

__all__ = [
    "GENESIS_VERSION",
    "BatchedSequencer",
    "EpochView",
    "Lease",
    "LeasedBlock",
    "LeasedRangeSequencer",
    "LogShard",
    "Metalog",
    "MonolithSequencer",
    "PartitionedKV",
    "Router",
    "Sequencer",
    "ShardReplicaSet",
    "ShardedLog",
    "ShardedPlane",
    "SingleNodePlane",
    "StoragePlane",
    "available_backends",
    "available_sequencers",
    "base_key",
    "build_sequencer",
    "build_storage_plane",
    "diff_partition_snapshots",
    "stable_hash",
    "storage_consistency_report",
]
