"""Seeded SIGKILL schedules for the live compute plane.

The DES kills nodes by interrupting simulated processes; the live plane
kills them for real — ``SIGKILL``, no cleanup, no goodbye frame.  The
controller decides *when*: kill thresholds are drawn from a seeded
stream over the middle of the request schedule (so the pool is warm and
the run can still drain), and each armed kill fires on the next
eligible storage operation from a busy worker.

The eligible set is deliberately the sharpest adversarial point: the
user-visible KV write of an in-flight invocation.  The gateway applies
the write to the real plane, SIGKILLs the worker, and never sends the
reply — so the effect is durable, the completion is not, and the
orphan's replay must decide what to do about it.  The logged protocols
detect the landed step and stay exactly-once; the ``unsafe`` control
re-reads the bumped value and double-applies, which is precisely the
violation the audit exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


#: (target, method) pairs a kill may fire on — user-visible KV writes.
#: ``mv.write_version`` is halfmoon-read's write path (versioned store
#: for log-free reads); the plain protocols write through ``kv``.
ELIGIBLE_WRITE_OPS = frozenset({
    ("kv", "put"),
    ("kv", "conditional_put"),
    ("mv", "write_version"),
})


@dataclass
class KillEvent:
    """One SIGKILL delivered to a busy worker mid-invocation."""

    worker_id: int
    pid: int
    instance_id: str
    op: str
    at_ms: float
    completed_before: int
    detected_at_ms: Optional[float] = None

    @property
    def detection_ms(self) -> Optional[float]:
        if self.detected_at_ms is None:
            return None
        return self.detected_at_ms - self.at_ms


@dataclass
class LiveChaosController:
    """Arms ``kills`` seeded kill points across ``total_requests``."""

    kills: int
    total_requests: int
    rng: np.random.Generator
    #: Completion counts at which successive kills arm (sorted).
    thresholds: List[int] = field(default_factory=list)
    events: List[KillEvent] = field(default_factory=list)
    _armed: bool = False
    _next: int = 0

    def __post_init__(self) -> None:
        if self.kills <= 0:
            return
        # Middle 15–70% of the schedule: the pool is warm, and even the
        # last orphan has the tail of the run to be detected + replayed.
        lo = max(1, int(self.total_requests * 0.15))
        hi = max(lo + 1, int(self.total_requests * 0.70))
        draws = sorted(
            int(self.rng.integers(lo, hi)) for _ in range(self.kills)
        )
        # De-duplicate while preserving count: nudge collisions forward.
        seen = set()
        for d in draws:
            while d in seen:
                d += 1
            seen.add(d)
            self.thresholds.append(d)
        self.thresholds.sort()

    # -- gateway hooks ---------------------------------------------------

    def note_completion(self, completed: int) -> None:
        """Arm the next kill once enough requests have completed."""
        if (not self._armed and self._next < len(self.thresholds)
                and completed >= self.thresholds[self._next]):
            self._armed = True
            self._next += 1

    def should_kill(self, target: str, method: str) -> bool:
        """Fire on the next eligible write op while armed."""
        return self._armed and (target, method) in ELIGIBLE_WRITE_OPS

    def record_kill(self, event: KillEvent) -> None:
        self.events.append(event)
        self._armed = False

    # -- results ---------------------------------------------------------

    @property
    def delivered(self) -> int:
        return len(self.events)

    def summary(self) -> List[Tuple[int, str, float]]:
        return [(e.worker_id, e.instance_id, e.at_ms) for e in self.events]
