"""Hash-partitioned key-value store.

M independent :class:`~repro.store.kv.KVStore` partitions behind the
same API, with keys placed by a stable hash of the *base* object key
(version suffixes are stripped, so every version of an object — and its
single-version LATEST slot — lives with the object; see
:mod:`repro.storageplane.routing`).  This mirrors how DynamoDB actually
serves the paper's prototype: items are hash-partitioned, per-key
conditional updates are single-partition operations, and aggregate
throughput scales with partitions while per-key ordering is untouched.

At ``partitions=1`` every call lands on partition 0's plain ``KVStore``
and the behaviour (including key iteration order, which the
multi-version layer's ``list_versions`` scan observes) is bit-identical
to the unpartitioned store.  The :class:`~repro.store.versioned.
MultiVersionStore` and :class:`~repro.store.table.TableSnapshotReader`
layers work unchanged on top — they only use the duck-typed KV surface.

Fault tolerance (the storage-chaos PR): with ``durability=True`` each
partition keeps a redo **journal** (every mutation since the last
checkpoint) plus a **checkpoint** snapshot the GC refreshes.  Note the
protocol log records never carry values (log-optimality: Halfmoon logs
metadata, not data), so a lost partition cannot be rebuilt from the
shared log — the storage tier's own durability machinery is what a real
DynamoDB provides, and the journal models it.  ``crash_partition``
wipes a partition's state; operations routed there are rejected before
any effect (:class:`~repro.errors.PartitionUnavailableError`) until
``rebuild_partition`` replays checkpoint + journal.  Durability is off
by default and every default path stays bit-identical.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..errors import PartitionUnavailableError, StoreError
from ..store.kv import KVStore, StoredObject
from .routing import Router


class PartitionedKV:
    """``KVStore``-compatible facade over M hash-routed partitions."""

    def __init__(
        self,
        partitions: int = 1,
        durability: bool = False,
    ):
        self.router = Router(partitions)
        self._partitions = [KVStore() for _ in range(partitions)]
        #: Running sum of the partitions' bytes: every mutation goes
        #: through this facade, which adds the touched partition's delta.
        self._storage_bytes = 0
        self._durability = bool(durability)
        #: Redo journals + checkpoints, one per partition (durability).
        self._journals: Optional[List[List[Tuple]]] = (
            [[] for _ in range(partitions)] if durability else None
        )
        self._checkpoints: Optional[List[Dict[str, Tuple]]] = (
            [{} for _ in range(partitions)] if durability else None
        )
        self._down_partitions: Set[int] = set()
        self._degraded = False
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Placement / introspection
    # ------------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partition_of(self, key: str) -> int:
        """Deterministic key → partition placement (by base object key)."""
        return self.router.route_store_key(key)

    def partition(self, index: int) -> KVStore:
        return self._partitions[index]

    def _store(self, key: str) -> KVStore:
        index = self.router.route_store_key(key)
        if self._degraded and index in self._down_partitions:
            raise PartitionUnavailableError(
                f"kv partition {index} is down (rebuild pending)",
                partition=index, service="store",
            )
        return self._partitions[index]

    def __contains__(self, key: str) -> bool:
        return key in self._store(key)

    def __len__(self) -> int:
        return sum(len(p) for p in self._partitions)

    def keys(self) -> Iterator[str]:
        for store in self._partitions:
            yield from store.keys()

    def storage_bytes(self) -> int:
        return self._storage_bytes

    def partition_bytes(self, index: int) -> int:
        return self._partitions[index].storage_bytes()

    @property
    def read_count(self) -> int:
        return sum(p.read_count for p in self._partitions)

    @property
    def write_count(self) -> int:
        return sum(p.write_count for p in self._partitions)

    @property
    def conditional_rejections(self) -> int:
        return sum(p.conditional_rejections for p in self._partitions)

    def partition_stats(self) -> List[dict]:
        return [
            {
                "partition": i,
                "keys": len(p),
                "bytes": p.storage_bytes(),
                "reads": p.read_count,
                "writes": p.write_count,
            }
            for i, p in enumerate(self._partitions)
        ]

    # ------------------------------------------------------------------
    # Data plane (delegated per key)
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any:
        return self._store(key).get(key)

    def get_optional(self, key: str, default: Any = None) -> Any:
        return self._store(key).get_optional(key, default)

    def get_with_version(self, key: str) -> Tuple[Any, Any]:
        return self._store(key).get_with_version(key)

    def put(self, key: str, value: Any, value_bytes: int = 0) -> None:
        store = self._store(key)
        before = store._storage_bytes
        store.put(key, value, value_bytes)
        self._storage_bytes += store._storage_bytes - before
        if self._durability:
            self._journal(key, ("put", key, value, value_bytes))

    def conditional_put(
        self, key: str, value: Any, version: Any, value_bytes: int = 0
    ) -> bool:
        store = self._store(key)
        before = store._storage_bytes
        applied = store.conditional_put(key, value, version, value_bytes)
        self._storage_bytes += store._storage_bytes - before
        if self._durability:
            # Journal the *attempt*: replay from the checkpoint evolves
            # the same state, so it re-decides identically.
            self._journal(key, ("cput", key, value, version, value_bytes))
        return applied

    def set_version(self, key: str, version: Any) -> None:
        self._store(key).set_version(key, version)
        if self._durability:
            self._journal(key, ("setv", key, version))

    def delete(self, key: str) -> bool:
        store = self._store(key)
        before = store._storage_bytes
        deleted = store.delete(key)
        self._storage_bytes += store._storage_bytes - before
        if self._durability:
            self._journal(key, ("del", key))
        return deleted

    # ------------------------------------------------------------------
    # Durability: journal, checkpoint, crash, rebuild
    # ------------------------------------------------------------------

    @property
    def durability(self) -> bool:
        return self._durability

    @property
    def rebuilds(self) -> int:
        return self._rebuilds

    def down_partitions(self) -> Set[int]:
        return set(self._down_partitions)

    def _journal(self, key: str, entry: Tuple) -> None:
        self._journals[self.router.route_store_key(key)].append(entry)

    def journal_length(self, index: int) -> int:
        if self._journals is None:
            return 0
        return len(self._journals[index])

    def snapshot_partition(self, index: int) -> Dict[str, Tuple[Any, Any]]:
        """``{key: (value, version)}`` view for the consistency audit."""
        store = self._partitions[index]
        return {
            key: (obj.value, obj.version)
            for key, obj in store._data.items()
        }

    def checkpoint_partition(self, index: int) -> int:
        """Snapshot a partition's state and truncate its journal.

        The GC calls this on its cycle so journals stay bounded by the
        mutation rate between collections.  Returns the number of
        journal entries truncated.  Down partitions are skipped — their
        journal is exactly what the rebuild needs.
        """
        if not self._durability or index in self._down_partitions:
            return 0
        store = self._partitions[index]
        self._checkpoints[index] = {
            key: (obj.value, obj.version, obj.value_bytes)
            for key, obj in store._data.items()
        }
        truncated = len(self._journals[index])
        self._journals[index] = []
        return truncated

    def crash_partition(self, index: int) -> None:
        """Lose a partition: its in-memory state is wiped.

        Until ``rebuild_partition``, every operation routed here is
        rejected *before* taking effect, so protocol retries during the
        outage window cannot half-apply.
        """
        self._partitions[index] = KVStore()
        self._down_partitions.add(index)
        self._degraded = True
        self._recount_storage_bytes()

    def rebuild_partition(self, index: int) -> int:
        """Reconstruct a lost partition: checkpoint restore + redo replay.

        Returns the number of journal entries replayed.  Requires
        ``durability=True`` (armed by storage chaos); without it a lost
        partition's data would be unrecoverable, which is exactly why
        the real prototype delegates this tier to DynamoDB.
        """
        if not self._durability:
            raise StoreError(
                "rebuild_partition requires durability journaling"
            )
        store = self._partitions[index]
        for key, (value, version, value_bytes) in (
            self._checkpoints[index].items()
        ):
            store._data[key] = StoredObject(value, version, value_bytes)
            store._storage_bytes += value_bytes
        journal = self._journals[index]
        for entry in journal:
            op = entry[0]
            if op == "put":
                _, key, value, value_bytes = entry
                store.put(key, value, value_bytes)
            elif op == "cput":
                _, key, value, version, value_bytes = entry
                store.conditional_put(key, value, version, value_bytes)
            elif op == "setv":
                _, key, version = entry
                store.set_version(key, version)
            else:
                store.delete(entry[1])
        self._down_partitions.discard(index)
        self._degraded = bool(self._down_partitions)
        self._rebuilds += 1
        self._recount_storage_bytes()
        return len(journal)

    def _recount_storage_bytes(self) -> None:
        """Crash and rebuild change a partition wholesale, outside the
        per-key delegation that keeps the running total."""
        self._storage_bytes = sum(
            p.storage_bytes() for p in self._partitions
        )
