"""Microbenchmarks: Table 1 and Figure 10.

* :func:`run_table1` samples the three primitive operations of the
  logging stack — a shared-log append, a raw store read, a raw store
  write — and reports median and p99, mirroring Table 1's measurement of
  Boki's primitives.

* :func:`run_fig10` measures per-operation read and write latency of the
  four systems (Unsafe, Boki, Halfmoon-read, Halfmoon-write) using the
  Section 6.1 setup: a synthetic SSF issuing one read and one write per
  request over 10K objects (8 B keys, 256 B values).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer
from ..protocols.registry import SYSTEMS
from ..runtime.local import LocalRuntime
from ..runtime.services import Cost
from ..simulation.metrics import LatencyRecorder
from ..workloads.synthetic import ReadWriteMicrobench
from .parallel import cell_config, run_grid, sweep_of
from .report import ExperimentTable


def run_table1(
    config: Optional[SystemConfig] = None, samples: int = 5_000
) -> ExperimentTable:
    """Latency of log, read, and write primitives (Table 1)."""
    runtime = LocalRuntime(cell_config(config).validate(), protocol="boki")
    backend = runtime.backend
    recorders = {
        "Log": LatencyRecorder("log"),
        "Read": LatencyRecorder("read"),
        "Write": LatencyRecorder("write"),
    }
    kinds = {
        "Log": Cost.LOG_APPEND,
        "Read": Cost.DB_READ,
        "Write": Cost.DB_WRITE,
    }
    rng = backend.rng.stream("table1")
    for name, recorder in recorders.items():
        for _ in range(samples):
            recorder.record(backend.latency.sample(kinds[name], rng))

    table = ExperimentTable(
        "Table 1: latency of log, read and write operations",
        ["metric", "Log (ms)", "Read (ms)", "Write (ms)"],
    )
    table.add_row(
        "median",
        recorders["Log"].median(),
        recorders["Read"].median(),
        recorders["Write"].median(),
    )
    table.add_row(
        "99%-tile",
        recorders["Log"].p99(),
        recorders["Read"].p99(),
        recorders["Write"].p99(),
    )
    table.add_note(
        "paper: median 1.18 / 1.88 / 2.47 ms; p99 1.91 / 4.60 / 5.86 ms"
    )
    return table


def measure_op_latencies(
    protocol: str,
    config: Optional[SystemConfig] = None,
    requests: int = 1_000,
    num_keys: int = 2_000,
    tracer: Optional[Tracer] = None,
) -> Dict[str, LatencyRecorder]:
    """Per-operation read/write latencies for one system (Figure 10).

    Uses manual sessions so each operation's latency can be isolated from
    the per-invocation init cost (Figure 10 reports operation latency, not
    request latency).
    """
    runtime = LocalRuntime(cell_config(config).validate(), protocol=protocol)
    runtime.backend.tracer = tracer
    workload = ReadWriteMicrobench(num_keys=num_keys)
    workload.register(runtime)
    workload.populate(runtime)
    rng = runtime.backend.rng.stream("fig10-requests")

    reads = LatencyRecorder(f"{protocol}-read")
    writes = LatencyRecorder(f"{protocol}-write")
    for _ in range(requests):
        request = workload.next_request(rng)
        session = runtime.open_session(input=request.input)
        session.init()
        before = session.latency_ms
        session.read(request.input["read_key"])
        after_read = session.latency_ms
        session.write(
            request.input["write_key"], request.input["value"]
        )
        after_write = session.latency_ms
        session.finish()
        reads.record(after_read - before)
        writes.record(after_write - after_read)
    runtime.run_gc()
    return {"read": reads, "write": writes}


@sweep_of(measure_op_latencies)
def run_fig10(
    systems: Sequence[str] = SYSTEMS,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> Dict[str, ExperimentTable]:
    """Figure 10: read/write latency of the four systems.  Remaining
    keywords are :func:`measure_op_latencies`'s.

    Each system is one independent cell, so ``jobs`` parallelises the
    per-system measurement without changing any recorded sample.
    """
    grid = run_grid(
        measure_op_latencies, dict(protocol=systems), point,
        jobs=jobs, tracer=tracer,
    )
    tables: Dict[str, ExperimentTable] = {}
    for op, label in [("read", "(a) Read"), ("write", "(b) Write")]:
        table = ExperimentTable(
            f"Figure 10 {label} latency",
            ["system", "median (ms)", "p99 (ms)"],
        )
        for cell, recorders in grid:
            recorder = recorders[op]
            table.add_row(
                cell["protocol"], recorder.median(), recorder.p99()
            )
        tables[op] = table

    tables["read"].add_note(
        "expected shape: HM-read ~25-35% below Boki, small overhead over "
        "unsafe; HM-write ~= Boki"
    )
    tables["write"].add_note(
        "expected shape: HM-write ~30-40% below Boki; HM-read ~= Boki"
    )
    for table in tables.values():
        table.attach(grid)
    return tables
