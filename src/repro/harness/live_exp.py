"""``python -m repro live``: the exactly-once audit on real processes.

Every prior audit (chaos, failover, storagechaos) ran inside the DES —
simulated interleavings, simulated crashes, simulated clocks.  This
experiment runs the same fig10-style counter workload and the same
ground-truth audit against the ``localhost`` compute plane: real worker
processes invoking through a real socket against the real storage
plane, with a seeded schedule of mid-invocation ``SIGKILL``s, wall-clock
lease-expiry detection, and orphan takeover through protocol replay.

The claim under test is unchanged: boki / halfmoon-read /
halfmoon-write must report **zero** exactly-once violations and zero
storage-consistency anomalies even though workers die with their KV
write durable and their completion unreported; the ``unsafe`` control
must violate on exactly that schedule — if it doesn't, the kills were
not adversarial and the run is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..compute import build_compute_plane
from ..compute.worker import WorkloadSpec
from ..config import SystemConfig
from ..observe import Tracer
from ..protocols.registry import PROTOCOL_CLASSES, SYSTEMS
from ..workloads.counter import CounterWorkload
from .audit import GroundTruth, anomaly_count, storage_anomalies
from .parallel import cell_config, point_kwargs, seed_for, sweep_of
from .platform import RunResult
from .report import ExperimentTable


@dataclass
class LivePoint:
    """Outcome of one live (system) cell."""

    protocol: str
    result: RunResult
    violations: int
    expected_bumps: int
    consistency_anomalies: List[str]
    kills_delivered: int
    workers_spawned: int


def run_live_point(
    protocol: str,
    workers: int = 4,
    kills: int = 3,
    rate_per_s: float = 400.0,
    requests: int = 250,
    lease_ms: float = 400.0,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    fault_rate: float = 0.0,
    crash_f: float = 0.0,
    compute_ms: float = 2.0,
    log_shards: int = 2,
    kv_partitions: int = 2,
    deadline_s: float = 120.0,
    tracer: Optional[Tracer] = None,
    telemetry: Optional[bool] = None,
    flightrec_dir: Optional[str] = None,
    max_inflight: Optional[int] = None,
) -> LivePoint:
    """One live cell: ``requests`` invocations over ``workers``
    processes with ``kills`` seeded mid-invocation SIGKILLs.

    ``telemetry`` defaults to "on iff traced"; ``flightrec_dir``
    directs flight-recorder dumps (and the ``repro top`` discovery
    file) — ``None`` keeps the run artifact-free.  ``max_inflight``
    arms gateway admission control (default: unbounded).
    """
    cfg = cell_config(config, seed, fault_rate, lease_ms).with_storage_plane(
        log_shards=log_shards,
        kv_partitions=kv_partitions,
    )
    # Per-protocol child seed (parallel-sweep convention): cells are
    # independent, reproducible, and distinct.
    cfg = cfg.with_seed(seed_for(cfg.seed, ("live", protocol))).validate()

    num_keys = int(requests) + 64
    workload_kwargs = dict(
        num_keys=num_keys, read_ratio=0.3, compute_ms=compute_ms
    )
    workload = CounterWorkload(**workload_kwargs)
    spec = WorkloadSpec(
        module="repro.workloads.counter",
        qualname="CounterWorkload",
        kwargs=workload_kwargs,
    )

    plane = build_compute_plane(
        "localhost", workload, protocol, config=cfg, tracer=tracer,
        workload_spec=spec, num_workers=workers, kills=kills,
        requests=requests, crash_f=crash_f, deadline_s=deadline_s,
        telemetry=telemetry, flightrec_dir=flightrec_dir,
        max_inflight=max_inflight,
    )

    truth = GroundTruth(workload.keys)
    plane.on_request_complete = truth.on_request_complete
    duration_ms = requests * 1000.0 / rate_per_s
    try:
        result = plane.run(rate_per_s, duration_ms)
        # The gateway-side probe invocation observes committed state.
        violations = truth.violations(plane.runtime)
        anomalies = storage_anomalies(plane.backend.plane)
        if violations or anomalies:
            # Forensics for the one outcome the audit exists to catch.
            plane.flightrec.record(
                "audit-violation", protocol=protocol,
                violations=violations, anomalies=len(anomalies),
            )
            plane.dump_flightrecorder("audit-violation", meta={
                "protocol": protocol,
                "violations": violations,
                "anomalies": anomalies[:10],
            })
    finally:
        plane.close()

    return LivePoint(
        protocol=protocol,
        result=result,
        violations=violations,
        expected_bumps=truth.bumps,
        consistency_anomalies=anomalies,
        kills_delivered=result.extras.get("kills_delivered", 0),
        workers_spawned=result.extras.get("workers_spawned", workers),
    )


@sweep_of(run_live_point)
def run_live(systems: Sequence[str] = SYSTEMS, **point) -> ExperimentTable:
    """Live compute-plane audit, one cell per system: the three
    exactly-once protocols plus the control.  Keywords are
    :func:`run_live_point`'s.  The cells run serially and share the
    caller's tracer — each owns the machine's worker pool, and the
    merged trace keeps one id space across gateway and workers."""
    effective = point_kwargs(run_live_point, point)
    max_inflight = effective["max_inflight"]
    table = ExperimentTable(
        f"Live compute plane: {effective['workers']} worker processes, "
        f"{effective['kills']} SIGKILLs mid-invocation, "
        f"lease {effective['lease_ms']:.0f}ms wall",
        ["system", "recovery", "completed", "kills", "orphans",
         "recovered", "detect p50 (ms)", "takeover p50 (ms)",
         "median (ms)", "p99 (ms)", "rpc p50 (ms)", "rpc p99 (ms)",
         "rpc ops/req", "violations", "anomalies"],
    )
    for system in systems:
        live_point = run_live_point(system, **point)
        table.points.append(live_point)
        result = live_point.result
        detect = result.detection_ms
        takeover = result.takeover_ms
        table.add_row(
            system,
            PROTOCOL_CLASSES[system].recovery_mode,
            result.completed,
            live_point.kills_delivered,
            result.orphaned_invocations,
            result.recovered_orphans,
            detect.median() if detect is not None and detect.count else 0.0,
            (takeover.median()
             if takeover is not None and takeover.count else 0.0),
            result.median_ms,
            result.p99_ms,
            result.extras.get("rpc_p50_ms") or 0.0,
            result.extras.get("rpc_p99_ms") or 0.0,
            result.extras.get("rpc_ops_per_req") or 0.0,
            live_point.violations,
            anomaly_count(live_point),
        )
        for note in per_worker_notes(system, result):
            table.add_note(note)
        if max_inflight is not None:
            table.add_note(
                f"{system}: admission bound {max_inflight} in flight, "
                f"shed {result.extras.get('requests_shed', 0)} requests"
            )
    table.add_note(
        "real processes + wall clocks: logged protocols must show 0 "
        "violations / 0 anomalies; the unsafe control must violate"
    )
    return table


def per_worker_notes(system: str, result: RunResult) -> List[str]:
    """Per-worker forensic lines for the live report: which workers
    were killed, how fast each death was detected and its replacement
    ready, and each worker's RPC round-trip percentiles (from shipped
    telemetry)."""
    notes: List[str] = []
    rows = result.extras.get("per_worker", ())
    ready_ms = {row.get("worker"): row.get("ready_ms") for row in rows}
    for row in rows:
        parts = [f"inv={row.get('invocations', 0)}"]
        if row.get("killed"):
            detect = row.get("detection_ms")
            parts.append(
                "killed, detected in "
                + (f"{detect:.1f}ms" if detect is not None else "never")
            )
            # The other half of the recovery: fork request -> READY.
            ready = ready_ms.get(row.get("replaced_by"))
            if ready is not None:
                parts.append(f"replacement ready in {ready:.1f}ms")
        if row.get("rpc_p50_ms") is not None:
            parts.append(
                f"rpc p50/p99 {row['rpc_p50_ms']:.2f}/"
                f"{row['rpc_p99_ms']:.2f}ms"
            )
        if len(parts) > 1 or row.get("killed"):
            notes.append(
                f"{system} worker#{row.get('worker')}: "
                + ", ".join(parts)
            )
    return notes


__all__ = [
    "LivePoint",
    "per_worker_notes",
    "run_live",
    "run_live_point",
]
