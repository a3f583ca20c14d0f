"""The ``sim`` compute backend: the DES platform, wrapped unchanged.

:class:`SimComputePlane` forwards its constructor arguments verbatim to
:class:`~repro.harness.platform.SimPlatform` and delegates everything
else, so selecting ``sim`` by name is bit-identical to
constructing the platform directly (the regression test in
``tests/compute/test_sim_identity.py`` diffs the two on the fig10
golden cell).  Keeping the wrapper free of any extra seeded draws or
config mutation is what preserves that identity.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..config import SystemConfig
from ..observe import Tracer
from ..workloads.base import Workload
from .base import ComputePlane


class SimComputePlane(ComputePlane):
    """Registry adapter over :class:`SimPlatform` (zero behavior delta)."""

    name = "sim"

    def __init__(
        self,
        workload: Workload,
        protocol: str,
        config: Optional[SystemConfig] = None,
        enable_switching: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        from ..harness.platform import SimPlatform

        self.platform = SimPlatform(
            workload, protocol, config=config,
            enable_switching=enable_switching, tracer=tracer,
        )

    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ):
        return self.platform.run(
            rate_per_s, duration_ms, warmup_ms=warmup_ms, drain_ms=drain_ms
        )

    @property
    def runtime(self) -> Any:
        return self.platform.runtime

    @property
    def on_request_complete(self) -> Optional[Callable[[Any, float], None]]:
        return self.platform.on_request_complete

    @on_request_complete.setter
    def on_request_complete(
        self, callback: Optional[Callable[[Any, float], None]]
    ) -> None:
        self.platform.on_request_complete = callback

    def __getattr__(self, name: str) -> Any:
        # Crash scheduling, lease access, etc. — the wrapper hides
        # nothing the DES platform exposes.
        return getattr(self.platform, name)

