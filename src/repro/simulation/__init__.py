"""Discrete-event simulation substrate: kernel, resources, RNG, latency,
and measurement primitives.
"""

from .._lazy import lazy_exports
from ..errors import ConfigError

__getattr__, __dir__ = lazy_exports(globals(), {
    ".kernel": ("Event", "Interrupt", "Process", "Simulator", "Timeout"),
    ".latency": (
        "ConstantLatency", "EmpiricalLatency", "LatencyModel",
        "LogNormalLatency", "NormalDrawBatch", "ScaledLatency",
        "UniformLatency",
    ),
    ".metrics": (
        "Counter", "LatencyRecorder", "LatencySummary", "ThroughputMeter",
        "TimeSeries", "TimeWeightedGauge",
    ),
    ".resources": ("NodeWorkerPool", "Resource", "WorkerGrant"),
    ".rng": ("RngRegistry", "derive_seed"),
})


def select_kernel(name: str) -> str:
    """Benchmark shim: ``"pure"`` names the one kernel, anything else raises.

    Kept only because ``benchmarks/e2e/run.py::prepare`` calls it for its
    ``sim_kernel`` stamp and that tree is frozen outside ``[benchmark]``
    PRs; the next one removes the call and this function together.
    """
    if name != "pure":
        raise ConfigError(f"unknown simulation kernel {name!r}; only 'pure'")
    return "pure"


__all__ = [
    "ConstantLatency",
    "Counter",
    "EmpiricalLatency",
    "Event",
    "Interrupt",
    "LatencyModel",
    "LatencyRecorder",
    "LatencySummary",
    "LogNormalLatency",
    "NodeWorkerPool",
    "NormalDrawBatch",
    "Process",
    "Resource",
    "RngRegistry",
    "ScaledLatency",
    "Simulator",
    "ThroughputMeter",
    "TimeSeries",
    "TimeWeightedGauge",
    "Timeout",
    "UniformLatency",
    "WorkerGrant",
    "derive_seed",
    "select_kernel",
]
