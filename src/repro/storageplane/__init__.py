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

from .audit import diff_partition_snapshots, storage_consistency_report
from .base import GENESIS_VERSION, StoragePlane
from .fencing import EpochView, Lease
from .metalog import Metalog
from .partitioned_kv import PartitionedKV
from .plane import (
    ShardedPlane,
    SingleNodePlane,
    available_backends,
    build_storage_plane,
)
from .replication import ShardReplicaSet
from .routing import Router, base_key, stable_hash
from .sequencer import (
    BatchedSequencer,
    LeasedBlock,
    LeasedRangeSequencer,
    MonolithSequencer,
    Sequencer,
    available_sequencers,
    build_sequencer,
)
from .sharded_log import LogShard, ShardedLog

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
