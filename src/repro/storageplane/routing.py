"""Deterministic placement: tag → log shard, key → KV partition.

Sharding only helps if placement is *stable*: the same tag must land on
the same shard in every run (Python's builtin ``hash`` is salted per
process, so it is useless here) and across both the substrate and the
DES contention model (which must queue an append at the same station the
substrate charged it to).  We use CRC-32 of the UTF-8 bytes — cheap,
seedless, and identical on every platform.

Versioned store keys (``"key@version"``) are routed by the *base* key so
every version of an object — and its single-version LATEST slot — lives
in one partition, which is what lets a future real backend serve a
``DBWrite`` + version install as a single-partition transaction.

Placement is CRC-32 modulo the shard count: stateless, so any component
(a live worker's proxy plane, say) can compute a route without talking
to the router.
"""

from __future__ import annotations

import zlib
from typing import Dict

from ..errors import ConfigError

#: Separator of the multi-version composite store keys
#: (mirrors :data:`repro.store.versioned._SEPARATOR`).
_VERSION_SEPARATOR = "@"


def stable_hash(text: str) -> int:
    """Process-independent 32-bit hash of a routing key."""
    return zlib.crc32(text.encode("utf-8"))


def base_key(key: str) -> str:
    """Strip a version suffix so all versions of an object co-locate."""
    return key.partition(_VERSION_SEPARATOR)[0]


class Router:
    """Maps routing keys onto ``[0, shards)`` by stable hash."""

    def __init__(self, shards: int):
        if shards <= 0:
            raise ConfigError("shard count must be positive")
        self.shards = shards
        #: Route memo.  Placement is pure, so a computed route never
        #: changes and the CRC can be skipped on every repeat routing
        #: of a key.  The key universe is bounded by the workload (tags
        #: + store keys), so the memo is too.
        self._routes: Dict[str, int] = {}
        self._store_routes: Dict[str, int] = {}

    def route(self, key: str) -> int:
        shard = self._routes.get(key)
        if shard is not None:
            return shard
        shard = self._routes[key] = (
            0 if self.shards == 1 else stable_hash(key) % self.shards
        )
        return shard

    def route_store_key(self, key: str) -> int:
        """Route a store key by its base object key."""
        shard = self._store_routes.get(key)
        if shard is None:
            shard = self._store_routes[key] = self.route(base_key(key))
        return shard
