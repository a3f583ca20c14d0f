"""The storage plane: metalog + log shards + partitioned KV.

The runtime binds to :class:`StoragePlane`, never to concrete
substrates; :func:`build_storage_plane` builds it from
:class:`~repro.config.StorageSizeConfig` (``log_shards`` /
``kv_partitions`` / ``replication`` / ``sequencer``).  There is one
plane: the shared log is a :class:`Metalog` + N :class:`LogShard` s
(:class:`ShardedLog`) and the store M hash partitions
(:class:`PartitionedKV`), at every size.  The topology only decides
placement (which shard or partition an operation lands on); the default
1×1 plane is the paper-faithful configuration.

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
    ".fencing": ("EpochView",),
    ".metalog": ("Metalog",),
    ".partitioned_kv": ("PartitionedKV",),
    ".plane": ("GENESIS_VERSION", "StoragePlane", "build_storage_plane"),
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
    "StoragePlane",
    "available_sequencers",
    "base_key",
    "build_sequencer",
    "build_storage_plane",
    "diff_partition_snapshots",
    "stable_hash",
    "storage_consistency_report",
]
