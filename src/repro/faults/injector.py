"""Seeded per-operation fault plans.

Every externally visible operation (log append/read, DB read/write) asks
the injector for a :class:`FaultDecision` before it runs.  Decisions are
drawn from a single named RNG stream, so a run is a deterministic
function of the root seed: same seed, same fault plan, same results.

Injected faults are *request omissions*: an ``error`` or ``timeout``
strikes before the substrate call takes effect, so injection alone can
never duplicate an effect.  The interesting exactly-once windows — an
effect applied but unacknowledged — are covered by composing crash
injection (:mod:`repro.runtime.failures`) on top, which kills the
instance between an effect and its commit record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

from ..config import FaultConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

#: The substrate returned an error reply (request dropped, no effect).
FAULT_ERROR = "error"
#: The request hung; the caller pays its per-attempt timeout (no effect).
FAULT_TIMEOUT = "timeout"
#: Gray failure: the call succeeds but on a slow node (inflated latency).
FAULT_GRAY = "gray"

#: Which fault kinds leave the substrate call unexecuted.
OMISSION_KINDS = frozenset({FAULT_ERROR, FAULT_TIMEOUT})


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of one injection draw.

    ``kind`` is ``None`` for a healthy call; ``latency_factor`` scales
    the operation's sampled service time (> 1 only for gray failures).
    """

    kind: str = None  # type: ignore[assignment]
    latency_factor: float = 1.0

    @property
    def healthy(self) -> bool:
        return self.kind is None

    @property
    def omitted(self) -> bool:
        """True when the substrate call must not run for this attempt."""
        return self.kind in OMISSION_KINDS


HEALTHY = FaultDecision()


class FaultInjector:
    """Draws per-operation fault decisions from a dedicated RNG stream."""

    def __init__(self, config: FaultConfig, rng: np.random.Generator):
        config.validate()
        self.config = config
        self.rng = rng
        #: Injected-fault counts by ``"<service>:<kind>"``, for reports.
        self.injected: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.config.enabled and self.config.total_rate > 0.0

    def applies_to(self, service: str) -> bool:
        return self.config.scope in ("all", service)

    def draw(self, service: str, op: str) -> FaultDecision:
        """Decide the fate of one substrate call.

        ``service`` is ``"log"`` or ``"store"``; ``op`` is the cost-kind
        label, recorded for diagnostics only.
        """
        cfg = self.config
        if not self.enabled or not self.applies_to(service):
            return HEALTHY
        roll = float(self.rng.random())
        if roll < cfg.error_rate:
            decision = FaultDecision(FAULT_ERROR)
        elif roll < cfg.error_rate + cfg.timeout_rate:
            decision = FaultDecision(FAULT_TIMEOUT)
        elif roll < cfg.total_rate:
            # Inflation is itself sampled so gray latencies vary, but
            # deterministically: the factor comes from the same stream.
            factor = 1.0 + float(self.rng.random()) * (cfg.gray_factor - 1.0)
            decision = FaultDecision(FAULT_GRAY, latency_factor=factor)
        else:
            return HEALTHY
        key = f"{service}:{decision.kind}"
        self.injected[key] = self.injected.get(key, 0) + 1
        return decision

    def injected_total(self) -> int:
        return sum(self.injected.values())
