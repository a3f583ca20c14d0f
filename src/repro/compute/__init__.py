"""Pluggable compute planes: simulated and real-process execution.

ROADMAP item 1: the protocols are decoupled from storage
(:mod:`repro.storageplane`) and from the clock (``now_fn``); this
package exploits both to make *execution* pluggable too.  A
:class:`ComputePlane` is one deployment shape — the ``sim`` backend is
the DES (:class:`~repro.harness.platform.SimPlatform` itself), the
``localhost`` backend is an asyncio gateway plus a pool of real worker
processes with SIGKILL chaos and wall-clock lease-based recovery (:mod:`repro.compute.gateway`).  Backends are
selected by name from a table like the storage plane's, each imported
when first built (:func:`build_compute_plane`); the ``live`` experiment
(:mod:`repro.harness.live_exp`) runs the exactly-once audit against the
localhost plane.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".base": (
        "ComputePlane", "available_backends", "build_compute_plane",
    ),
    ".chaos": ("ELIGIBLE_WRITE_OPS", "KillEvent", "LiveChaosController"),
    ".gateway": ("LocalhostComputePlane",),
    ".worker": ("WorkloadSpec",),
})

__all__ = [
    "ComputePlane",
    "ELIGIBLE_WRITE_OPS",
    "KillEvent",
    "LiveChaosController",
    "LocalhostComputePlane",
    "WorkloadSpec",
    "available_backends",
    "build_compute_plane",
]
