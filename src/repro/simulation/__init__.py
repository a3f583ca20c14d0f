"""Discrete-event simulation substrate: kernel, resources, RNG, latency,
and measurement primitives.
"""

from ..errors import ConfigError
from .kernel import Event, Interrupt, Process, Simulator, Timeout
from .latency import (
    ConstantLatency,
    EmpiricalLatency,
    LatencyModel,
    LogNormalLatency,
    NormalDrawBatch,
    ScaledLatency,
    UniformLatency,
)
from .metrics import (
    Counter,
    LatencyRecorder,
    LatencySummary,
    ThroughputMeter,
    TimeSeries,
    TimeWeightedGauge,
)
from .resources import NodeWorkerPool, Resource, WorkerGrant
from .rng import RngRegistry, derive_seed


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
