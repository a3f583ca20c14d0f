"""The pluggable compute-plane interface.

The storage side of the reproduction became pluggable in PR 4
(:mod:`repro.storageplane`); this module is the same seam for the
*execution* side, modeled on Lithops' execution modes (localhost /
serverless / standalone): a :class:`ComputePlane` is one deployment
shape that can drive a workload under a protocol and produce the
standard :class:`RunResult`, and a closed table maps backend names to
constructors so harnesses and the CLI select the plane by name.  The
table names each backend's module, imported when that backend is first
built: choosing ``sim`` never loads the asyncio gateway, and nothing
depends on which modules happen to be imported.

Two backends ship:

* ``sim`` — the discrete-event simulation platform itself
  (:class:`~repro.harness.platform.SimPlatform`, a
  :class:`ComputePlane` subclass — no adapter in between);
* ``localhost`` — real OS processes: an asyncio gateway serving the
  actual :class:`~repro.storageplane.StoragePlane` over a unix socket
  to a pool of worker processes, each running
  :class:`~repro.runtime.local.LocalRuntime` with wall-clock latencies
  and SIGKILL-able workers (:mod:`repro.compute.gateway`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple

from ..config import SystemConfig
from ..errors import ConfigError
from ..observe import LatencyBreakdown, Tracer
from ..simulation.metrics import LatencyRecorder, TimeSeries
from ..workloads.base import Workload


@dataclass
class RunResult:
    """Metrics from one run of a compute plane."""

    protocol: str
    workload: str
    offered_rate_per_s: float
    duration_ms: float
    completed: int
    crashed_attempts: int
    #: Attempts abandoned because a substrate blew its retry budget.
    faulted_attempts: int
    median_ms: float
    p99_ms: float
    mean_ms: float
    throughput_per_s: float
    avg_log_bytes: float
    avg_db_bytes: float
    avg_total_bytes: float
    latency_series: TimeSeries = field(repr=False, default=None)
    counters: Dict[str, int] = field(repr=False, default_factory=dict)
    #: Total simulated milliseconds spent per cost kind (log appends,
    #: store reads, ...), for overhead breakdowns.
    time_by_kind: Dict[str, float] = field(repr=False,
                                           default_factory=dict)
    extras: Dict[str, Any] = field(repr=False, default_factory=dict)
    #: Node-failure accounting (zero unless the run crashed nodes).
    node_crashes: int = 0
    orphaned_invocations: int = 0
    recovered_orphans: int = 0
    detection_ms: LatencyRecorder = field(repr=False, default=None)
    takeover_ms: LatencyRecorder = field(repr=False, default=None)
    #: Per-request latency decomposition (post-warmup completions);
    #: stage vectors sum exactly to end-to-end latency.
    breakdown: LatencyBreakdown = field(repr=False, default=None)
    #: ``MetricsRegistry.snapshot()`` of the backend registry at the
    #: end of the run — every component's metrics in one namespace.
    metrics: Dict[str, Dict[str, Any]] = field(repr=False,
                                               default_factory=dict)


class ComputePlane(ABC):
    """One execution deployment driving a workload under one protocol."""

    #: Registry name of the backend that built this plane.
    name: str = "abstract"
    #: The control-plane runtime (ground-truth probes go through it).
    runtime: Any
    #: ``callback(request, latency_ms)`` fired once per completion.
    on_request_complete: Optional[Callable[[Any, float], None]] = None

    @abstractmethod
    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ) -> RunResult:
        """Drive the workload and return its :class:`RunResult`."""

    def close(self) -> None:
        """Release plane resources (processes, sockets); idempotent."""


#: ``name -> (module, class)``, closed like the storage plane's; each
#: class is built as ``cls(workload, protocol, config=, enable_switching=,
#: tracer=, **backend_kwargs)``.
_BACKENDS: Dict[str, Tuple[str, str]] = {
    "localhost": (".gateway", "LocalhostComputePlane"),
    "sim": ("..harness.platform", "SimPlatform"),
}


def available_backends() -> Tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def build_compute_plane(
    backend: str,
    workload: Workload,
    protocol: str,
    config: Optional[SystemConfig] = None,
    enable_switching: bool = False,
    tracer: Optional[Tracer] = None,
    **kwargs: Any,
) -> ComputePlane:
    """Build the named compute plane for one (workload, protocol) run."""
    try:
        module, name = _BACKENDS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown compute backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    return getattr(import_module(module, __package__), name)(
        workload, protocol, config=config,
        enable_switching=enable_switching, tracer=tracer, **kwargs,
    )
