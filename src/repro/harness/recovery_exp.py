"""Recovery-cost experiment (Section 7).

Sweeps the per-round crash probability ``f`` and compares mean request
latency of Halfmoon (with the protocol matched to the workload) against
Boki.  Per the Bernoulli analysis, Halfmoon's failure-free advantage ``x``
(~30% in Figure 10) means it keeps winning until ``f`` approaches ``x`` —
far beyond real-world failure rates; the paper's technical report
validates a win even at f = 40% because symmetric replay is not actually
free.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..config import SystemConfig
from ..protocols.boki import BokiProtocol
from ..protocols.halfmoon_write import HalfmoonWriteProtocol
from ..runtime.failures import BernoulliCrashes
from ..runtime.local import LocalRuntime
from ..simulation.metrics import LatencyRecorder
from ..workloads.synthetic import MixedRatioWorkload
from .parallel import cell_config, point_kwargs, run_grid, sweep_of
from .report import ExperimentTable


def run_recovery_point(
    protocol: str,
    f: float,
    read_ratio: float = 0.5,
    config: Optional[SystemConfig] = None,
    requests: int = 400,
    num_keys: int = 500,
) -> LatencyRecorder:
    """Mean latency of one system at crash rate ``f`` (direct mode)."""
    runtime = LocalRuntime(cell_config(config).validate(), protocol=protocol)
    runtime.crash_policy = BernoulliCrashes(
        f, runtime.backend.rng.stream("crashes"), horizon=24
    )
    workload = MixedRatioWorkload(read_ratio, num_keys=num_keys)
    workload.register(runtime)
    workload.populate(runtime)
    rng = runtime.backend.rng.stream("recovery-requests")

    recorder = LatencyRecorder(f"{protocol}@f={f}")
    for _ in range(requests):
        request = workload.next_request(rng)
        result = runtime.invoke(request.func_name, request.input)
        recorder.record(result.latency_ms)
    return recorder


@sweep_of(run_recovery_point)
def run_recovery_sweep(
    f_values: Sequence[float] = (0.0, 0.1, 0.2, 0.3, 0.4),
    systems: Sequence[str] = (BokiProtocol.name, HalfmoonWriteProtocol.name),
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """Section 7: mean latency vs per-round failure rate.  Remaining
    keywords are :func:`run_recovery_point`'s."""
    read_ratio = point_kwargs(run_recovery_point, point)["read_ratio"]
    table = ExperimentTable(
        f"Section 7: recovery cost (read ratio {read_ratio})",
        ["system", "f", "mean (ms)", "median (ms)", "p99 (ms)"],
    )
    grid = run_grid(
        run_recovery_point, dict(protocol=systems, f=f_values), point,
        jobs=jobs,
    )
    for cell, recorder in grid:
        table.add_row(
            cell["protocol"], cell["f"], recorder.mean(),
            recorder.median(), recorder.p99(),
        )
    table.add_note(
        "expected shape: Halfmoon below Boki across realistic f; the gap "
        "narrows as f grows because Halfmoon replays log-free operations"
    )
    return table.attach(grid)
