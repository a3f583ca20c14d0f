"""The storage plane: one shared log plus one external store.

Halfmoon's prototype runs on Boki, whose "shared log" is really a
*metalog* (a global sequencer ordering records) in front of a set of
storage shards, with DynamoDB as the external store — AFT makes the
same point by interposing one shim interface over a storage backend
whose deployments differ only in placement.  :class:`StoragePlane` is
that seam: the only storage type the runtime
(:class:`~repro.runtime.services.ServiceBackend`) binds to, built from
:class:`~repro.config.StorageSizeConfig` by :func:`build_storage_plane`.

Every plane is the same substrate:

* :attr:`StoragePlane.log` is a :class:`~repro.storageplane.sharded_log.
  ShardedLog` (metalog + N log shards), exposing the five log APIs of
  the paper's Figure 3 (``append`` / ``read_prev`` / ``read_next`` /
  ``trim`` / ``cond_append``) plus the introspection the GC and switch
  manager use;
* :attr:`StoragePlane.kv` is a :class:`~repro.storageplane.
  partitioned_kv.PartitionedKV` (M key-hash partitions), the
  plain-KV-plus-conditional-update surface;
* :attr:`StoragePlane.mv` is the multi-version layer over ``kv``.

The topology decides only placement: every operation lands on a shard
(log kinds) or a partition (store kinds), and its placement is that
index, computed by :attr:`StoragePlane.log_shard_of` /
:attr:`StoragePlane.kv_partition_of` at every size — at one shard the
router answers 0 without hashing.  The service layer names it on trace
spans and the DES queues each append at its shard's station.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict

from ..store import MultiVersionStore
# Re-exported so protocol code can reference the genesis version marker
# without importing a concrete store class (see repro.protocols.transitional).
from ..store.kv import GENESIS_VERSION  # noqa: F401
from .partitioned_kv import PartitionedKV
from .sharded_log import ShardedLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig


class StoragePlane:
    """One storage deployment: the shared log plus the external store."""

    def __init__(self, config: "SystemConfig"):
        storage = config.storage
        self.log = ShardedLog(
            meta_bytes=storage.meta_bytes,
            shards=storage.log_shards,
            replication=storage.replication,
            sequencer=storage.sequencer,
            # The storage config carries the strategy knobs
            # (sequencer_batch / _hold_ms / _block).
            sequencer_options=storage,
        )
        self.kv = PartitionedKV(
            partitions=storage.kv_partitions,
            # Partition-loss recovery needs the redo journal; only pay
            # for it when storage chaos can actually lose a partition.
            durability=config.storage_chaos.enabled,
        )
        self.mv = MultiVersionStore(self.kv)
        self.num_log_shards = storage.log_shards
        self.num_kv_partitions = storage.kv_partitions
        self.log_shard_of = self.log.shard_of
        self.kv_partition_of = self.kv.partition_of

    def describe(self) -> Dict[str, Any]:
        """Flat snapshot of the plane topology and its per-shard /
        per-partition bytes (registry probe); the sequencer and
        replication keys appear only when those are not the defaults."""
        log, kv = self.log, self.kv
        info: Dict[str, Any] = {
            "log_shards": self.num_log_shards,
            "kv_partitions": self.num_kv_partitions,
            "shard_bytes": [
                log.shard_bytes(i) for i in range(self.num_log_shards)
            ],
            "partition_bytes": [
                kv.partition_bytes(i)
                for i in range(self.num_kv_partitions)
            ],
            "trim_frontiers": log.shard_trim_frontiers(),
        }
        if log.sequencer.name != "monolith":
            info["sequencer"] = log.sequencer.stats()
        if log.replication > 1 or kv.durability:
            info["replication"] = log.replication
            info["epoch"] = log.epoch
            info["failovers"] = log.metalog.failovers
            info["down_shards"] = sorted(log.down_shards())
            info["down_partitions"] = sorted(kv.down_partitions())
        return info


def build_storage_plane(config: "SystemConfig") -> StoragePlane:
    """Build the plane ``config.storage`` describes."""
    config.storage.validate()
    return StoragePlane(config)
