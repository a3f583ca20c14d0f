"""Concrete storage planes and the config-driven backend table.

Two built-in backends:

* ``single`` — the seed substrates verbatim (:class:`SharedLog` +
  :class:`KVStore`).  Zero indirection, bit-identical to the
  pre-refactor code, and the paper-faithful configuration.
* ``sharded`` — :class:`~repro.storageplane.sharded_log.ShardedLog`
  (metalog + N log shards) and :class:`~repro.storageplane.
  partitioned_kv.PartitionedKV` (M KV partitions), both routed
  deterministically.  At N=M=1 it is bit-identical to ``single`` (the
  golden-run CI diff enforces this); at N>1 it feeds the per-shard
  queueing model and per-shard metrics.

``backend="auto"`` (the default) picks ``single`` when the topology is
1×1 and ``sharded`` otherwise, so existing configs never change
behaviour and setting ``log_shards=4`` alone is enough to shard.  The
service layer binds only to :class:`~repro.storageplane.base.
StoragePlane`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TYPE_CHECKING

from ..errors import ConfigError
from ..sharedlog import SharedLog
from ..store import KVStore, MultiVersionStore
from .base import StoragePlane
from .partitioned_kv import PartitionedKV
from .sharded_log import ShardedLog

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..config import SystemConfig


class SingleNodePlane(StoragePlane):
    """The seed topology: one log, one store, no placement labels."""

    name = "single"

    def __init__(self, config: "SystemConfig"):
        self._log = SharedLog(meta_bytes=config.storage.meta_bytes)
        self._kv = KVStore()
        self._mv = MultiVersionStore(self._kv)

    @property
    def log(self) -> SharedLog:
        return self._log

    @property
    def kv(self) -> KVStore:
        return self._kv

    @property
    def mv(self) -> MultiVersionStore:
        return self._mv


class ShardedPlane(StoragePlane):
    """Metalog + N log shards + M KV partitions, hash-routed."""

    name = "sharded"

    def __init__(self, config: "SystemConfig"):
        storage = config.storage
        self._log = ShardedLog(
            meta_bytes=storage.meta_bytes,
            shards=storage.log_shards,
            replication=storage.replication,
            sequencer=storage.sequencer,
            # The storage config carries the strategy knobs
            # (sequencer_batch / _hold_ms / _block).
            sequencer_options=storage,
        )
        self._kv = PartitionedKV(
            partitions=storage.kv_partitions,
            # Partition-loss recovery needs the redo journal; only pay
            # for it when storage chaos can actually lose a partition.
            durability=config.storage_chaos.enabled,
        )
        self._mv = MultiVersionStore(self._kv)

    @property
    def log(self) -> ShardedLog:
        return self._log

    @property
    def kv(self) -> PartitionedKV:
        return self._kv

    @property
    def mv(self) -> MultiVersionStore:
        return self._mv

    @property
    def num_log_shards(self) -> int:
        return self._log.num_shards

    @property
    def num_kv_partitions(self) -> int:
        return self._kv.num_partitions

    def log_shard_of(self, tag: str) -> int:
        return self._log.shard_of(tag)

    def kv_partition_of(self, key: str) -> int:
        return self._kv.partition_of(key)

    @property
    def labelled(self) -> bool:
        return True

    def describe(self) -> Dict:
        info = super().describe()
        info["shard_bytes"] = [
            self._log.shard_bytes(i) for i in range(self._log.num_shards)
        ]
        info["partition_bytes"] = [
            self._kv.partition_bytes(i)
            for i in range(self._kv.num_partitions)
        ]
        info["trim_frontiers"] = self._log.shard_trim_frontiers()
        if self._log.sequencer.name != "monolith":
            info["sequencer"] = self._log.sequencer.stats()
        if self._log.replication > 1 or self._kv.durability:
            info["replication"] = self._log.replication
            info["epoch"] = self._log.epoch
            info["failovers"] = self._log.metalog.failovers
            info["down_shards"] = sorted(self._log.down_shards())
            info["down_partitions"] = sorted(self._kv.down_partitions())
        return info


# ---------------------------------------------------------------------------
# Backend table
# ---------------------------------------------------------------------------

_BACKENDS: Dict[str, Callable[["SystemConfig"], StoragePlane]] = {
    "single": SingleNodePlane,
    "sharded": ShardedPlane,
}


def available_backends() -> List[str]:
    return sorted(_BACKENDS)


def build_storage_plane(config: "SystemConfig") -> StoragePlane:
    """Build the plane the config selects (``storage.backend``)."""
    storage = config.storage
    name = storage.backend
    if name == "auto":
        # Storage chaos needs the sharded plane's crash/rebuild surface
        # even at a 1×1 topology; without it, 1×1 stays on the seed
        # substrates bit-exactly.
        plain = (
            storage.log_shards == 1
            and storage.kv_partitions == 1
            and storage.replication == 1
            and storage.sequencer == "monolith"
            and not config.storage_chaos.enabled
        )
        name = "single" if plain else "sharded"
    factory = _BACKENDS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown storage backend {name!r}; "
            f"available: {available_backends()}"
        )
    return factory(config)
