"""Retry policy: bounded attempts, exponential backoff, deadlines.

The schedule is the classic AWS-style "full jitter" variant, made
deterministic by drawing the jitter from a seeded stream: backoff for
attempt ``n`` (1-based; the first retry follows attempt 1) is

    min(max_backoff, base * multiplier**(n-1)) * (1 + U[0, jitter])

Backoff is *simulated* waiting — it is charged to the invocation's cost
trace (``retry_backoff``), which is how fault amplification becomes
visible in DES-mode latency plots.  The knobs are the platform's
validated :class:`~repro.config.ResilienceConfig`, read as it is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .injector import FAULT_TIMEOUT

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from ..config import ResilienceConfig

#: Fenced-epoch handling (``FencedEpochError``): a fence proves the
#: request never applied and names its own fix, so the caller refreshes
#: its cached metalog leader epoch at this flat cost and retries at once
#: instead of walking the backoff schedule.
REDISCOVERY_MS = 2.0
#: Bounds the rediscovery loop against a flapping leader.
MAX_REDISCOVERIES = 4


def backoff_ms(config: ResilienceConfig, attempt: int,
               rng: np.random.Generator) -> float:
    """Backoff to charge after failed attempt ``attempt`` (1-based)."""
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    base = min(
        config.max_backoff_ms,
        config.base_backoff_ms * config.backoff_multiplier ** (attempt - 1),
    )
    if config.jitter_fraction == 0.0:
        return base
    return base * (1.0 + config.jitter_fraction * float(rng.random()))


def fault_cost_ms(config: ResilienceConfig, fault_kind: str) -> float:
    """Simulated time burned by one failed attempt of ``fault_kind``."""
    if fault_kind == FAULT_TIMEOUT:
        return config.attempt_timeout_ms
    return config.error_latency_ms
