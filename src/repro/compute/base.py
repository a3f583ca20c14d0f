"""The pluggable compute-plane interface.

The storage side of the reproduction became pluggable in PR 4
(:mod:`repro.storageplane`); this module is the same seam for the
*execution* side, modeled on Lithops' execution modes (localhost /
serverless / standalone): a :class:`ComputePlane` is one deployment
shape that can drive a workload under a protocol and produce the
standard :class:`~repro.harness.platform.RunResult`, and a table maps
backend names to constructors so harnesses and the CLI select the plane
by name.  The table names each shipped backend's module, imported when
that backend is first built: choosing ``sim`` never loads the asyncio
gateway, and nothing depends on which modules happen to be imported.

Two backends ship here:

* ``sim`` — the discrete-event simulation platform
  (:class:`~repro.harness.platform.SimPlatform`), wrapped unchanged:
  same constructor arguments, same seeded streams, bit-identical
  results (a golden test diffs it against direct construction);
* ``localhost`` — real OS processes: an asyncio gateway serving the
  actual :class:`~repro.storageplane.StoragePlane` over a unix socket
  to a pool of worker processes, each running
  :class:`~repro.runtime.local.LocalRuntime` with wall-clock latencies
  and SIGKILL-able workers (:mod:`repro.compute.gateway`).

Container-based backends (the Lithops "serverless" shape) would slot in
through :func:`register_backend` without touching callers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..config import SystemConfig
from ..errors import ConfigError
from ..observe import Tracer
from ..workloads.base import Workload


class ComputePlane(ABC):
    """One execution deployment driving a workload under one protocol."""

    #: Registry name of the backend that built this plane.
    name: str = "abstract"

    @abstractmethod
    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ) -> Any:
        """Drive the workload and return a ``RunResult``."""

    # -- audit hooks -----------------------------------------------------

    @property
    @abstractmethod
    def runtime(self) -> Any:
        """The control-plane runtime (ground-truth probes go through it)."""

    @property
    def on_request_complete(self) -> Optional[Callable[[Any, float], None]]:
        """``callback(request, latency_ms)`` fired once per completion."""
        return None

    @on_request_complete.setter
    def on_request_complete(
        self, callback: Optional[Callable[[Any, float], None]]
    ) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release plane resources (processes, sockets); idempotent."""


#: ``constructor(workload, protocol, config, enable_switching, tracer,
#: **backend_kwargs) -> ComputePlane``
PlaneFactory = Callable[..., ComputePlane]

#: ``name -> (submodule, class)`` for the shipped backends, closed like
#: the storage plane's; :func:`register_backend` writes factories into it.
_BACKENDS: Dict[str, Union[PlaneFactory, Tuple[str, str]]] = {
    "localhost": (".gateway", "LocalhostComputePlane"),
    "sim": (".sim", "SimComputePlane"),
}


def register_backend(name: str, factory: PlaneFactory) -> None:
    """Register a compute backend under ``name`` (last wins, also over
    a shipped one)."""
    _BACKENDS[name] = factory


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
        factory = _BACKENDS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown compute backend {backend!r}; "
            f"available: {', '.join(available_backends())}"
        ) from None
    if isinstance(factory, tuple):
        submodule, name = factory
        factory = getattr(import_module(submodule, __package__), name)
    return factory(
        workload, protocol, config=config,
        enable_switching=enable_switching, tracer=tracer, **kwargs,
    )
