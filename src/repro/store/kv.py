"""Single-version key-value store with conditional updates.

Models the external storage (Amazon DynamoDB in the paper's prototype).
The only capabilities the protocols require are plain get/put/delete and a
conditional update that compares a stored version attribute — exactly what
Halfmoon-write's pseudocode uses::

    DBWrite(key, cond="VERSION < {vNum}", update="VALUE=...; VERSION=...")

Version attributes are opaque, totally ordered Python values (Halfmoon-
write uses ``(cursorTS, consecutive_write_counter)`` tuples).  A missing
key compares below every version, so the first conditional write to a key
always lands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Tuple

from ..errors import KeyMissingError, StoreError

#: Version attribute of a key that has never been conditionally written.
#: Compares below any real version tuple.
GENESIS_VERSION: Tuple = ()


@dataclass
class StoredObject:
    value: Any
    version: Any
    value_bytes: int


class KVStore:
    """In-memory KV store with byte accounting and conditional updates."""

    def __init__(self):
        self._data: Dict[str, StoredObject] = {}
        self._storage_bytes = 0
        self._reads = 0
        self._writes = 0
        self._conditional_writes = 0
        self._conditional_rejections = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[str]:
        return iter(self._data)

    def storage_bytes(self) -> int:
        return self._storage_bytes

    @property
    def read_count(self) -> int:
        return self._reads

    @property
    def write_count(self) -> int:
        return self._writes

    @property
    def conditional_rejections(self) -> int:
        return self._conditional_rejections

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def get(self, key: str) -> Any:
        self._reads += 1
        obj = self._data.get(key)
        if obj is None:
            raise KeyMissingError(f"key {key!r} not found")
        return obj.value

    def get_optional(self, key: str, default: Any = None) -> Any:
        self._reads += 1
        obj = self._data.get(key)
        return default if obj is None else obj.value

    def get_with_version(self, key: str) -> Tuple[Any, Any]:
        """Return ``(value, version)``; raises if the key is missing."""
        self._reads += 1
        obj = self._data.get(key)
        if obj is None:
            raise KeyMissingError(f"key {key!r} not found")
        return obj.value, obj.version

    def put(self, key: str, value: Any, value_bytes: int = 0) -> None:
        """Unconditional write; keeps the existing version attribute."""
        self._writes += 1
        old = self._data.get(key)
        version = old.version if old is not None else GENESIS_VERSION
        self._replace(key, StoredObject(value, version, int(value_bytes)))

    def conditional_put(
        self, key: str, value: Any, version: Any, value_bytes: int = 0
    ) -> bool:
        """Write iff the stored version is strictly smaller than ``version``.

        Returns ``True`` when the update was applied.  A rejected update is
        a normal outcome for Halfmoon-write's idempotent replay, not an
        error.
        """
        self._writes += 1
        self._conditional_writes += 1
        old = self._data.get(key)
        old_version = old.version if old is not None else GENESIS_VERSION
        if not self._version_less(old_version, version):
            self._conditional_rejections += 1
            return False
        self._replace(key, StoredObject(value, version, int(value_bytes)))
        return True

    def set_version(self, key: str, version: Any) -> None:
        """Force a key's version attribute (used by protocol switching)."""
        obj = self._data.get(key)
        if obj is None:
            raise KeyMissingError(f"key {key!r} not found")
        obj.version = version

    def delete(self, key: str) -> bool:
        obj = self._data.pop(key, None)
        if obj is None:
            return False
        self._storage_bytes -= obj.value_bytes
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _version_less(a: Any, b: Any) -> bool:
        """Total order with ``GENESIS_VERSION`` below everything."""
        if a == GENESIS_VERSION:
            return b != GENESIS_VERSION
        if b == GENESIS_VERSION:
            return False
        try:
            return a < b
        except TypeError as exc:  # incomparable version schemas
            raise StoreError(
                f"incomparable versions {a!r} and {b!r}"
            ) from exc

    def _replace(self, key: str, obj: StoredObject) -> None:
        old = self._data.get(key)
        if old is not None:
            self._storage_bytes -= old.value_bytes
        self._data[key] = obj
        self._storage_bytes += obj.value_bytes
