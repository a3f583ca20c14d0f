"""Skewed-population workload: Zipfian hot users at 10⁵–10⁶ scale.

The scale experiment (``python -m repro scale``) asks where each
sequencing strategy saturates under *realistic* skew: a large simulated
user population whose per-user activity follows a Zipf law (a few
celebrities absorb most of the traffic), optionally modulated by a
diurnal load curve.  Two pieces live here:

* :class:`SkewedWorkload` — ``ops_per_request`` write+read pairs per
  request, each against a Zipf-drawn user key out of ``num_users``
  (default 10⁵; 10⁶ works — keys are formatted lazily and memoized, so
  cost scales with the *distinct users touched*, not the population).
  Every op pair is write-first, so no request ever reads a key that was
  never written — which is what lets the population exceed what an
  eager ``populate`` could seed.
* :class:`DiurnalCurve` — a day-shaped rate multiplier (trough → peak →
  trough, cosine-interpolated) used to sample offered-load points along
  a simulated day instead of a flat grid.

The Zipf draw reuses :class:`~repro.workloads.base.ZipfSampler`, the
sampler hoisted out of retwis — one implementation, one set of seeded
draw semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from ..runtime.ops import ReadOp, WriteOp
from .base import Request, Workload, ZipfSampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: Default population: the 10⁵ operating point ISSUE 9 charts; pass
#: ``num_users=1_000_000`` for the 10⁶ point.
NUM_USERS = 100_000

#: How many of the hottest user keys ``populate`` seeds eagerly (probes
#: and read-leading variants touch these; everything else is created by
#: its first write).
HOT_SEED_KEYS = 256


def skew_touch_ssf(inp: Dict[str, Any]):
    """Write-then-read each drawn user's state (one SSF per request)."""
    last = None
    for key, value in inp["ops"]:
        yield WriteOp(key, value)
        last = yield ReadOp(key)
    return last


class SkewedWorkload(Workload):
    """Zipf-skewed per-user updates over a very large population."""

    name = "skewed-users"

    def __init__(
        self,
        num_users: int = NUM_USERS,
        zipf_s: float = 1.2,
        ops_per_request: int = 4,
        hot_seed_keys: int = HOT_SEED_KEYS,
    ):
        if num_users < 1:
            raise ValueError("num_users must be >= 1")
        if ops_per_request < 1:
            raise ValueError("ops_per_request must be >= 1")
        self.num_users = int(num_users)
        self.zipf_s = float(zipf_s)
        self.ops_per_request = int(ops_per_request)
        self.hot_seed_keys = min(int(hot_seed_keys), self.num_users)
        self.sampler = ZipfSampler(zipf_s, num_users)
        self._counter = 0
        #: Lazy key memo: the Zipf head dominates, so the number of
        #: distinct keys ever formatted is far below ``num_users``.
        self._key_memo: Dict[int, str] = {}

    def user_key(self, i: int) -> str:
        key = self._key_memo.get(i)
        if key is None:
            key = self._key_memo[i] = f"suser{i:07d}"
        return key

    @property
    def distinct_users_touched(self) -> int:
        return len(self._key_memo)

    def register(self, runtime) -> None:
        runtime.register("skew.touch", skew_touch_ssf)

    def populate(self, runtime) -> None:
        # Deliberately *not* per-user: at 10⁵–10⁶ users an eager seed
        # would dwarf the run itself.  The write-first SSF keeps lazily
        # created keys safe; only the hot head is pre-seeded.
        for i in range(self.hot_seed_keys):
            runtime.populate(self.user_key(i), 0)

    def next_request(self, rng: np.random.Generator) -> Request:
        ops: List[Tuple[str, Any]] = []
        append = ops.append
        sample = self.sampler.sample
        counter = self._counter
        for _ in range(self.ops_per_request):
            counter += 1
            append((self.user_key(sample(rng)), f"v{counter:08d}"))
        self._counter = counter
        return Request("skew.touch", {"ops": ops})

    def read_write_profile(self) -> Tuple[float, float]:
        ops = float(self.ops_per_request)
        return (ops, ops)


@dataclass(frozen=True)
class DiurnalCurve:
    """Day-shaped offered-load multiplier.

    ``multiplier(t_ms)`` traces trough → peak → trough over one
    ``period_ms`` via a raised cosine: ``trough_factor`` at t=0,
    ``peak_factor`` at t=period/2.  ``sample_rates`` returns ``points``
    rates along one period for a sweep grid — how the scale experiment
    turns "a day of traffic" into a deterministic set of cells.
    """

    base_rate_per_s: float
    peak_factor: float = 2.0
    trough_factor: float = 0.4
    period_ms: float = 86_400_000.0

    def __post_init__(self):
        if self.base_rate_per_s <= 0:
            raise ValueError("base_rate_per_s must be positive")
        if self.period_ms <= 0:
            raise ValueError("period_ms must be positive")
        if not 0 < self.trough_factor <= self.peak_factor:
            raise ValueError(
                "need 0 < trough_factor <= peak_factor"
            )

    def multiplier(self, t_ms: float) -> float:
        frac = (t_ms % self.period_ms) / self.period_ms
        blend = 0.5 - 0.5 * math.cos(2.0 * math.pi * frac)
        return (self.trough_factor
                + (self.peak_factor - self.trough_factor) * blend)

    def rate_at(self, t_ms: float) -> float:
        return self.base_rate_per_s * self.multiplier(t_ms)

    def sample_rates(self, points: int) -> List[float]:
        if points < 1:
            raise ValueError("points must be >= 1")
        step = self.period_ms / points
        return [self.rate_at(i * step) for i in range(points)]
