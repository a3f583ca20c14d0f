"""Function-node record cache.

Boki caches log records on function nodes, which is why ``logReadPrev``
costs ~0.12 ms at the median instead of a storage-node round trip
(Section 4.1).  The cache only influences *latency* in this reproduction —
the in-memory :class:`~repro.storageplane.ShardedLog` is always consistent —
so its job is to decide, deterministically, whether a given log read is a
hit or a miss.

The policy is LRU over seqnums.  Records a node appended itself, and
records it recently read, are resident; capacity pressure evicts the
least-recently used entries.

Entries remember which log shard their record lives on, so a storage
shard that goes away (or is re-placed) can invalidate exactly its share
of the cache via :meth:`RecordCache.evict_shard`, while a function-node
crash still evicts by seqnum hash via
:meth:`RecordCache.evict_partition`.  The single-shard topology always
inserts with ``shard=0``, which keeps behaviour identical to the
pre-shard cache.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigError


class RecordCache:
    """LRU set of cached record seqnums."""

    def __init__(self, capacity: int = 65536):
        if capacity <= 0:
            raise ConfigError("cache capacity must be positive")
        self.capacity = capacity
        #: seqnum → home log shard of the cached record.
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def hit_ratio(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def insert(self, seqnum: int, shard: int = 0) -> None:
        """Make ``seqnum`` resident (appends and completed reads do this).

        ``shard`` is the record's home log shard; single-shard callers
        leave the default 0.
        """
        if seqnum in self._entries:
            self._entries[seqnum] = shard
            self._entries.move_to_end(seqnum)
            return
        self._entries[seqnum] = shard
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def shard_of(self, seqnum: int) -> int:
        """Home shard recorded for a resident seqnum (raises if absent)."""
        return self._entries[seqnum]

    def contains(self, seqnum: int) -> bool:
        """Residency peek that mutates neither recency nor statistics.

        Used by the degraded-read path to decide whether a log read can
        be served node-locally while the log service is browning out.
        """
        return seqnum in self._entries

    def lookup(self, seqnum: int, shard: int = 0) -> bool:
        """Check residency, updating recency and hit/miss statistics."""
        if seqnum in self._entries:
            self._entries.move_to_end(seqnum)
            self._hits += 1
            return True
        self._misses += 1
        self.insert(seqnum, shard)
        return False

    def invalidate(self, seqnum: int) -> None:
        self._entries.pop(seqnum, None)

    def evict_partition(self, partition: int, num_partitions: int) -> int:
        """Drop every cached record in one hash partition.

        Models a function node crash: the distributed record cache loses
        the dead node's share (records are assumed hash-placed by seqnum
        modulo the node count), so takeover replays pay storage-trip
        latency for them until re-read.  Returns the eviction count.
        """
        if num_partitions <= 0:
            raise ConfigError("num_partitions must be positive")
        victims = [
            seqnum for seqnum in self._entries
            if seqnum % num_partitions == partition
        ]
        for seqnum in victims:
            del self._entries[seqnum]
        return len(victims)

    def evict_shard(self, shard: int) -> int:
        """Drop every cached record homed on one *log shard*.

        Models losing (or re-placing) a storage shard: cached copies of
        its records can no longer be trusted, so reads fall back to the
        storage tier until re-cached.  Partition eviction
        (:meth:`evict_partition`) slices by *function node*; this slices
        by *storage shard* — the two are independent axes.  Returns the
        eviction count.
        """
        victims = [
            seqnum for seqnum, home in self._entries.items()
            if home == shard
        ]
        for seqnum in victims:
            del self._entries[seqnum]
        return len(victims)

    def shard_census(self) -> dict:
        """Resident-entry count per home shard (diagnostics)."""
        census: dict = {}
        for home in self._entries.values():
            census[home] = census.get(home, 0) + 1
        return census

    def clear(self) -> None:
        self._entries.clear()
