"""Deterministic random-number streams.

Every stochastic component of the simulation (arrival process, latency
sampling, crash injection, key selection, ...) draws from its own named
stream, derived from a single root seed.  Two runs with the same root seed
and the same stream names therefore produce identical results regardless of
the order in which components are constructed, which keeps experiments and
property tests reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

#: Refill size of :class:`IntegerDrawBatch`.
ID_DRAW_CHUNK = 256


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``root_seed`` and ``name``."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class IntegerDrawBatch:
    """Chunked ``rng.integers(0, high)`` draws from one exclusively-owned
    stream: a refill of ``size=ID_DRAW_CHUNK`` consumes the generator
    exactly as that many scalar calls do, so the sequence is the scalar
    one (``tests/simulation/test_batched_ids.py``).  Same contract as
    :class:`~repro.simulation.latency.NormalDrawBatch`."""

    __slots__ = ("rng", "high", "_buf")

    def __init__(self, rng: np.random.Generator, high: int):
        self.rng = rng
        self.high = high
        #: Undrawn Python ints, next draw last (``pop`` is the cursor).
        self._buf: list = []

    def next_int(self) -> int:
        if not self._buf:
            self._buf = self.rng.integers(
                0, self.high, size=ID_DRAW_CHUNK
            ).tolist()[::-1]
        return self._buf.pop()


class RngRegistry:
    """Factory of named, independent :class:`numpy.random.Generator` streams.

    Streams are memoised: asking for the same name twice returns the same
    generator object (so its internal state advances continuously), while
    distinct names yield statistically independent streams.
    """

    def __init__(self, root_seed: int):
        self._root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(derive_seed(self._root_seed, name))
            self._streams[name] = gen
        return gen

    def fork(self, name: str) -> "RngRegistry":
        """Return a new registry whose root seed is derived from ``name``.

        Useful for giving repeated experiment trials independent-but-
        reproducible randomness.
        """
        return RngRegistry(derive_seed(self._root_seed, name))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RngRegistry(root_seed={self._root_seed!r}, "
            f"streams={sorted(self._streams)})"
        )
