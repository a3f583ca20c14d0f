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


def _only_shard(key: str) -> int:
    return 0


class _RouteMemo(dict):
    """Key → shard by CRC-32, placed on a key's first lookup
    (``__missing__``), so a repeat lookup is one dict subscript."""

    __slots__ = ("shards",)

    def __init__(self, shards: int):
        super().__init__()
        self.shards = shards

    def __missing__(self, key: str) -> int:
        shard = self[key] = stable_hash(key) % self.shards
        return shard


class _StoreRouteMemo(dict):
    """Store key → the shard of its base object key, memoised alike."""

    __slots__ = ("routes",)

    def __init__(self, routes: _RouteMemo):
        super().__init__()
        self.routes = routes

    def __missing__(self, key: str) -> int:
        shard = self[key] = self.routes[base_key(key)]
        return shard


class Router:
    """Maps routing keys onto ``[0, shards)`` by stable hash.

    ``route(key)`` places a tag or a base key; ``route_store_key(key)``
    places a store key by its base object key.  Placement is pure, so
    with several shards each is a memo over the CRC: the memo grows by
    one entry per distinct key routed, which is one per SSF instance
    tag and one per store key version, not a bound the workload sets.
    With one shard every key routes to 0 and nothing is memoised.
    """

    def __init__(self, shards: int):
        if shards <= 0:
            raise ConfigError("shard count must be positive")
        self.shards = shards
        if shards == 1:
            self.route = self.route_store_key = _only_shard
            return
        routes = _RouteMemo(shards)
        self.route = routes.__getitem__
        self.route_store_key = _StoreRouteMemo(routes).__getitem__
