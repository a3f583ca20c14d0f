"""Retry policy: bounded attempts, exponential backoff, deadlines.

The schedule is the classic AWS-style "full jitter" variant, made
deterministic by drawing the jitter from a seeded stream: backoff for
attempt ``n`` (1-based; the first retry follows attempt 1) is

    min(max_backoff, base * multiplier**(n-1)) * (1 + U[0, jitter])

Backoff is *simulated* waiting — it is charged to the invocation's cost
trace (``retry_backoff``), which is how fault amplification becomes
visible in DES-mode latency plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..config import ResilienceConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """Immutable view of the retry/deadline knobs of one platform."""

    max_attempts: int = 4
    base_backoff_ms: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 8.0
    jitter_fraction: float = 0.2
    attempt_timeout_ms: float = 10.0
    error_latency_ms: float = 1.0
    op_deadline_ms: float = 100.0
    #: Fenced-epoch handling: a fence names its own fix (refresh the
    #: cached leader epoch), so the retry pays one flat rediscovery
    #: round-trip instead of walking the backoff schedule; bounded by
    #: ``max_rediscoveries`` against a flapping leader.
    rediscovery_ms: float = 2.0
    max_rediscoveries: int = 4

    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "RetryPolicy":
        config.validate()
        return cls(
            max_attempts=config.max_attempts,
            base_backoff_ms=config.base_backoff_ms,
            backoff_multiplier=config.backoff_multiplier,
            max_backoff_ms=config.max_backoff_ms,
            jitter_fraction=config.jitter_fraction,
            attempt_timeout_ms=config.attempt_timeout_ms,
            error_latency_ms=config.error_latency_ms,
            op_deadline_ms=config.op_deadline_ms,
            rediscovery_ms=config.rediscovery_ms,
            max_rediscoveries=config.max_rediscoveries,
        )

    def backoff_ms(self, attempt: int, rng: np.random.Generator) -> float:
        """Backoff to charge after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        base = min(
            self.max_backoff_ms,
            self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1),
        )
        if self.jitter_fraction == 0.0:
            return base
        return base * (1.0 + self.jitter_fraction * float(rng.random()))

    def fault_cost_ms(self, fault_kind: str) -> float:
        """Simulated time burned by one failed attempt of ``fault_kind``."""
        from .injector import FAULT_TIMEOUT

        if fault_kind == FAULT_TIMEOUT:
            return self.attempt_timeout_ms
        return self.error_latency_ms
