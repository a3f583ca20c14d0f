"""The audited counter workload of the failover, storage-chaos and live
experiments.

It lives under ``workloads`` rather than beside the failover driver
because a live worker's pre-fork image imports the workload's module:
from here that is ``runtime.ops`` and ``workloads.base``, not the DES
platform and the sweep executor.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from ..runtime.ops import ComputeOp, ReadOp, WriteOp
from .base import Request, Workload

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class CounterWorkload(Workload):
    """Read-modify-write counters with a computable correct final state.

    ``bump`` is written op-style with a compute step between the read
    and the write, so invocations are in flight long enough for a node
    crash to strand some of them mid-execution.

    Every ``bump`` targets a *fresh* key, so the ground truth is free of
    concurrent read-modify-write races between distinct requests (which
    lose updates regardless of protocol — exactly-once is per
    invocation, not serializability across them).  The audit still
    catches the recovery anomalies that matter: a lost orphan leaves its
    key at 0, and a takeover that blindly re-applies a bump whose write
    already landed reads 1 and writes 2.
    """

    name = "failover-counters"

    def __init__(self, num_keys: int = 4_096, read_ratio: float = 0.3,
                 compute_ms: float = 8.0):
        self.keys = [f"c{i}" for i in range(num_keys)]
        self.read_ratio = read_ratio
        self.compute_ms = compute_ms
        self._next_key = 0

    def register(self, runtime) -> None:
        compute_ms = self.compute_ms

        def bump(key):
            value = yield ReadOp(key)
            yield ComputeOp(compute_ms)
            yield WriteOp(key, value + 1)
            return value + 1

        def peek(key):
            value = yield ReadOp(key)
            return value

        def probe(ctx, key):
            return ctx.read(key)

        runtime.register("bump", bump)
        runtime.register("peek", peek)
        runtime.register("probe", probe)

    def populate(self, runtime) -> None:
        for key in self.keys:
            runtime.populate(key, 0)

    def next_request(self, rng: np.random.Generator) -> Request:
        if (self._next_key > 0
                and float(rng.random()) < self.read_ratio):
            key = self.keys[int(rng.integers(0, self._next_key))]
            return Request("peek", key)
        if self._next_key >= len(self.keys):
            raise RuntimeError(
                f"CounterWorkload key pool ({len(self.keys)}) "
                "exhausted; size num_keys above the expected bump count"
            )
        key = self.keys[self._next_key]
        self._next_key += 1
        return Request("bump", key)

    def read_write_profile(self) -> Tuple[float, float]:
        return (1.0, 1.0 - self.read_ratio)
