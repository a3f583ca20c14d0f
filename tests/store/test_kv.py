"""Unit tests for the key-value store and conditional updates."""

import pytest

from repro.errors import KeyMissingError, StoreError
from repro.store import GENESIS_VERSION, KVStore


@pytest.fixture
def kv():
    return KVStore()


def test_get_missing_raises(kv):
    with pytest.raises(KeyMissingError):
        kv.get("nope")


def test_get_optional_default(kv):
    assert kv.get_optional("nope") is None
    assert kv.get_optional("nope", 3) == 3


def test_put_and_get(kv):
    kv.put("k", "v", value_bytes=10)
    assert kv.get("k") == "v"
    assert "k" in kv
    assert len(kv) == 1


def test_put_keeps_existing_version(kv):
    kv.conditional_put("k", "v1", (5, 1))
    kv.put("k", "v2")
    _, version = kv.get_with_version("k")
    assert version == (5, 1)


def test_fresh_put_has_genesis_version(kv):
    kv.put("k", "v")
    _, version = kv.get_with_version("k")
    assert version == GENESIS_VERSION


def test_conditional_put_applies_on_missing_key(kv):
    assert kv.conditional_put("k", "v", (1, 1)) is True
    assert kv.get("k") == "v"


def test_conditional_put_rejects_smaller_or_equal_version(kv):
    kv.conditional_put("k", "v1", (5, 1))
    assert kv.conditional_put("k", "v2", (4, 9)) is False
    assert kv.conditional_put("k", "v3", (5, 1)) is False  # equal
    assert kv.get("k") == "v1"
    assert kv.conditional_rejections == 2


def test_conditional_put_applies_larger_version(kv):
    kv.conditional_put("k", "v1", (5, 1))
    assert kv.conditional_put("k", "v2", (5, 2)) is True  # counter breaks tie
    assert kv.conditional_put("k", "v3", (6, 1)) is True
    assert kv.get("k") == "v3"


def test_conditional_put_beats_genesis(kv):
    kv.put("k", "initial")
    assert kv.conditional_put("k", "v", (1, 1)) is True


def test_genesis_never_beats_real_version(kv):
    kv.conditional_put("k", "v", (1, 1))
    # GENESIS compares below everything; the helper is internal but the
    # semantics are visible through _version_less.
    assert KVStore._version_less(GENESIS_VERSION, (1, 1)) is True
    assert KVStore._version_less((1, 1), GENESIS_VERSION) is False
    assert KVStore._version_less(GENESIS_VERSION, GENESIS_VERSION) is False


def test_incomparable_versions_raise(kv):
    kv.conditional_put("k", "v", (1, 1))
    with pytest.raises(StoreError):
        kv.conditional_put("k", "v2", "a-string-version")


def test_set_version(kv):
    kv.put("k", "v")
    kv.set_version("k", (9, 0))
    _, version = kv.get_with_version("k")
    assert version == (9, 0)
    with pytest.raises(KeyMissingError):
        kv.set_version("missing", (1, 0))


def test_delete(kv):
    kv.put("k", "v", value_bytes=10)
    assert kv.delete("k") is True
    assert kv.delete("k") is False
    assert kv.storage_bytes() == 0


def test_storage_accounting_replaces_not_accumulates(kv):
    kv.put("k", "v1", value_bytes=100)
    kv.put("k", "v2", value_bytes=300)
    assert kv.storage_bytes() == 300


def test_storage_listener(kv):
    # The byte counter is what a sampler reads after each mutation.
    observed = []
    kv.put("k", "v", value_bytes=10)
    observed.append(kv.storage_bytes())
    kv.delete("k")
    observed.append(kv.storage_bytes())
    assert observed == [10, 0]


def test_read_write_counters(kv):
    kv.put("k", "v")
    kv.get("k")
    kv.get_optional("x")
    kv.conditional_put("k", "v2", (1, 1))
    assert kv.read_count == 2
    assert kv.write_count == 2


def test_keys_iteration(kv):
    kv.put("a", 1)
    kv.put("b", 2)
    assert sorted(kv.keys()) == ["a", "b"]
