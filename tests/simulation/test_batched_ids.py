"""Seeded draw-sequence identity for the batched id draws.

``ServiceBackend.random_hex`` and ``LocalRuntime.new_instance_id`` draw
from an :class:`IntegerDrawBatch` — ``rng.integers(0, high, size=n)``
refills — instead of one scalar numpy call per id.  As for the batched
latency samplers (``test_batched_draws.py``), the whole argument is
stream identity: a refill consumes the generator exactly as ``n``
scalar calls do, so every seeded id — and everything keyed by one — is
unchanged.
"""

import numpy as np

from repro import LocalRuntime, SystemConfig
from repro.harness import APP_FACTORIES, SimPlatform
from repro.runtime.services import ServiceBackend
from repro.simulation.rng import ID_DRAW_CHUNK, IntegerDrawBatch, derive_seed

IDS = 10_000
assert IDS > 3 * ID_DRAW_CHUNK  # well past three refill boundaries

APPS_COMPLETED = 146
APPS_MEDIAN_MS = 52.58549986096307
APPS_COUNTERS = {
    "compute": 1501, "db_read_version": 1746, "db_write_version": 297,
    "invoke_overhead": 1329, "log_append": 297,
    "log_append_control": 4159, "log_append_overlapped": 297,
    "log_read": 3247,
}


def scalar_stream(seed, name):
    """The generator the backend derives for ``name``, drawn one scalar
    at a time: the reference sequence."""
    return np.random.default_rng(derive_seed(seed, name))


def test_batch_matches_scalar_integers_across_refills():
    for high in (1 << 32, 1 << 63):
        batch = IntegerDrawBatch(np.random.default_rng(99), high)
        scalar = np.random.default_rng(99)
        got = [batch.next_int() for _ in range(3 * ID_DRAW_CHUNK + 17)]
        assert got == [int(scalar.integers(0, high)) for _ in got]
        assert all(value.__class__ is int for value in got)


def test_random_hex_matches_two_scalar_draws_per_id():
    backend = ServiceBackend(SystemConfig(seed=12))
    rng = scalar_stream(12, "uuid")
    for _ in range(IDS):
        high = int(rng.integers(0, 1 << 32))
        low = int(rng.integers(0, 1 << 32))
        assert backend.random_hex() == f"{(high << 32) | low:016x}"


def test_instance_ids_match_scalar_draws():
    runtime = LocalRuntime(SystemConfig(seed=12))
    rng = scalar_stream(12, "instance-ids")
    for _ in range(IDS):
        assert (runtime.new_instance_id()
                == f"{int(rng.integers(0, 1 << 63)):016x}")


def test_apps_cell_unchanged_by_batched_ids():
    """A ``sim_apps``-shaped cell (``ctx.invoke`` children and
    Halfmoon-read versions each draw an id); literals captured with the
    scalar draws."""
    result = SimPlatform(
        APP_FACTORIES["travel-reservation"](), "halfmoon-read",
        SystemConfig(seed=8),
    ).run(150.0, 1_200.0, warmup_ms=200.0)
    assert result.completed == APPS_COMPLETED
    assert result.median_ms == APPS_MEDIAN_MS
    assert result.counters == APPS_COUNTERS
