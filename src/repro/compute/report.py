"""What the live gateway says about a run: the STATUS payload while it
runs (``repro top``'s input — :func:`~repro.compute.status.format_status`
reads these keys) and the :class:`~repro.compute.base.RunResult` when it
ends.  Both are read-only views over the gateway's parts."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..runtime.services import ServiceBackend
from .base import RunResult
from .chaos import LiveChaosController
from .dispatch import Dispatcher
from .frames import FrameServer
from .takeover import Recovery


def _stats(dispatcher: Dispatcher) -> Tuple[float, float, float]:
    """``(mean, median, p99)`` of the request latencies, zeros before
    the first completion."""
    latencies = dispatcher.latencies
    return latencies.stats() if latencies.count else (0.0, 0.0, 0.0)


def status_payload(
    now_ms: float, protocol: str, dispatcher: Dispatcher, recovery: Recovery,
    frames: FrameServer, chaos: Optional[LiveChaosController],
    aborted: Optional[str],
) -> Dict[str, Any]:
    """Point-in-time run state served on STATUS frames."""
    _, median_ms, p99_ms = _stats(dispatcher)
    return {
        "now_ms": now_ms,
        "protocol": protocol,
        "issued": dispatcher.issued,
        "completed": len(dispatcher.completed),
        "inflight": len(dispatcher.inflight),
        "rejected": dispatcher.rejected,
        "failed": len(dispatcher.failed),
        "kills": chaos.delivered if chaos else 0,
        "orphans": recovery.orphaned_invocations,
        "recovered": recovery.coordinator.recovered,
        "duplicates": dispatcher.duplicate_completions,
        "rate_per_s": dispatcher.throughput.rate_per_sec(),
        "median_ms": median_ms,
        "p99_ms": p99_ms,
        "telemetry_batches": frames.telemetry.batches,
        "rpc_frame_errors": frames.frame_errors,
        "rpc_ops_per_req": dispatcher.rpc_ops_per_req,
        "workers": [
            {
                "worker": slot.worker_id,
                "alive": slot.alive,
                "ready": slot.ready,
                "declared": slot.declared,
                "busy_with": slot.busy_with,
                "invocations": slot.invocations,
                "last_acked_op": slot.last_acked_op,
            }
            for slot in dispatcher.slots.values()
        ],
        "aborted": aborted,
    }


def run_result(
    backend_name: str, protocol: str, workload: str, rate_per_s: float,
    duration_ms: float, now_ms: float, backend: ServiceBackend,
    dispatcher: Dispatcher, recovery: Recovery, frames: FrameServer,
    chaos: Optional[LiveChaosController], *, workers: int,
    workers_spawned: int, aborted: Optional[str],
) -> RunResult:
    mean_ms, median_ms, p99_ms = _stats(dispatcher)
    wall_s = now_ms / 1000.0
    completed = len(dispatcher.completed)
    sink = frames.telemetry
    rpc_rt = sink.merged_latency("rpc_roundtrip_ms")
    kills = chaos.events if chaos else ()
    per_worker: List[Dict[str, Any]] = []
    for slot in dispatcher.slots.values():
        wrt = sink.worker_metric(slot.worker_id, "rpc_roundtrip_ms")
        kill = next(
            (e for e in kills if e.worker_id == slot.worker_id), None
        )
        per_worker.append({
            "worker": slot.worker_id,
            "invocations": slot.invocations,
            "alive": slot.alive,
            "killed": kill is not None,
            "detection_ms": (kill.detection_ms
                             if kill is not None else None),
            "ready_ms": slot.ready_ms,
            "replaced_by": slot.replaced_by,
            "rpc_p50_ms": (wrt.median() if wrt is not None
                           and wrt.count else None),
            "rpc_p99_ms": (wrt.p99() if wrt is not None
                           and wrt.count else None),
            "last_acked_op": slot.last_acked_op,
        })
    log_bytes = frames.log_gauge.time_average(now_ms)
    db_bytes = frames.db_gauge.time_average(now_ms)
    return RunResult(
        protocol=protocol,
        workload=workload,
        offered_rate_per_s=rate_per_s,
        duration_ms=duration_ms,
        completed=completed,
        crashed_attempts=dispatcher.crashed_attempts,
        faulted_attempts=dispatcher.faulted_attempts,
        median_ms=median_ms,
        p99_ms=p99_ms,
        mean_ms=mean_ms,
        throughput_per_s=completed / wall_s if wall_s > 0 else 0.0,
        avg_log_bytes=log_bytes,
        avg_db_bytes=db_bytes,
        avg_total_bytes=log_bytes + db_bytes,
        latency_series=dispatcher.latency_series,
        counters=backend.counters.as_dict(),
        time_by_kind=dict(dispatcher.time_by_kind),
        extras={
            "backend": backend_name,
            "wall_ms": now_ms,
            "requests_issued": dispatcher.issued,
            "requests_shed": dispatcher.rejected,
            "max_inflight": dispatcher.max_inflight,
            "append_coalescer": (
                frames.coalescer.stats()
                if frames.coalescer is not None else None
            ),
            "workers": workers,
            "workers_spawned": workers_spawned,
            "kills_delivered": len(kills),
            "kill_events": chaos.summary() if chaos else [],
            "duplicate_completions": dispatcher.duplicate_completions,
            "failed_invocations": dict(dispatcher.failed),
            "aborted": aborted,
            "telemetry_batches": sink.batches,
            "worker_spans_absorbed": sink.spans_absorbed,
            "rpc_frame_errors": frames.frame_errors,
            "rpc_p50_ms": (rpc_rt.median() if rpc_rt.count else None),
            "rpc_p99_ms": (rpc_rt.p99() if rpc_rt.count else None),
            "rpc_ops_per_req": dispatcher.rpc_ops_per_req,
            "per_worker": per_worker,
        },
        node_crashes=len(kills),
        orphaned_invocations=recovery.orphaned_invocations,
        recovered_orphans=recovery.coordinator.recovered,
        detection_ms=recovery.detection_latency,
        takeover_ms=recovery.coordinator.takeover_latency,
        breakdown=dispatcher.breakdown,
        metrics=backend.metrics.snapshot(now_ms=now_ms),
    )
