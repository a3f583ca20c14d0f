"""Deterministic placement: stable hashing, base-key colocation."""

import pytest

from repro.errors import ConfigError
from repro.storageplane import Router, base_key, stable_hash


def test_stable_hash_is_process_independent():
    # CRC-32 reference values: must never drift across runs/platforms
    # (Python's builtin hash() is salted and would).
    assert stable_hash("obj:key-1") == stable_hash("obj:key-1")
    assert stable_hash("") == 0
    assert stable_hash("a") == 0xE8B7BE43


def test_base_key_strips_version_suffix():
    assert base_key("counter@v3") == "counter"
    assert base_key("counter") == "counter"
    assert base_key("a@b@c") == "a"


def test_single_shard_routes_everything_to_zero():
    router = Router(1)
    assert all(router.route(f"tag-{i}") == 0 for i in range(50))


def test_hash_routing_is_stable_and_in_range():
    router = Router(4)
    routes = {tag: router.route(tag) for tag in
              (f"obj:{i}" for i in range(200))}
    assert set(routes.values()) <= {0, 1, 2, 3}
    # Re-route: same answers (stateless).
    again = Router(4)
    assert all(again.route(tag) == shard for tag, shard in routes.items())
    # A reasonable spread: every shard gets some tags.
    assert len(set(routes.values())) == 4


def test_versions_colocate_with_their_object():
    router = Router(8)
    home = router.route_store_key("account:42")
    for version in ("genesis", "17.3", "seal.900"):
        assert router.route_store_key(f"account:42@{version}") == home


def test_invalid_router_configs_rejected():
    with pytest.raises(ConfigError):
        Router(0)
