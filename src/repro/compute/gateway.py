"""The ``localhost`` compute backend: asyncio gateway + worker pool.

This is the live counterpart of :class:`~repro.harness.platform
.SimPlatform`: the same protocols, the same storage plane, the same
recovery machinery — but the concurrency, the clocks, and the deaths
are real.  One asyncio gateway process

* serves the actual :class:`~repro.storageplane.StoragePlane` over a
  unix socket (operations from all workers serialize in the event
  loop, exactly where a real storage service would serialize them);
  ``data_received`` decodes, serves and answers every frame of a read
  in that loop turn, against an op table closed at start-up,
* dispatches invocations to a pool of worker processes (forked from
  one template, owned by :mod:`~repro.compute.pool`), each running the
  full :class:`~repro.runtime.local.LocalRuntime` stack against an RPC
  proxy plane, the moment a (worker, invocation)
  pair exists; the INVOKE carries what the platform already knows about
  the instance — log frontier, attempt number, step log — so a request
  costs its protocol ops and no round trip besides,
* drives the shared clock-agnostic lease machinery
  (:class:`~repro.recovery.lease.LeaseTable`) with wall-clock
  heartbeats, so failure detection latency is measured wall time,
* reuses :class:`~repro.recovery.coordinator.RecoveryCoordinator`
  (``now_fn`` = wall clock) for orphan takeover: a declared-dead
  worker's in-flight invocations are re-dispatched to survivors with
  the same instance id, and the protocol replay does the rest,
* consults a per-worker :class:`~repro.faults.CircuitBreaker` at
  dispatch and paces retries with the shared
  :class:`~repro.faults.RetryPolicy`'s deterministic jitter,
* optionally bounds admission (``max_inflight``): past the bound,
  arrivals are shed deterministically — counted in the
  ``admission_rejections`` metric, never started, never audited —
  instead of growing the queue without limit,
* group-commits the log append stream when the storage plane runs the
  ``batched`` sequencer (:class:`_AppendCoalescer`): append/cond_append
  OP frames buffer until ``sequencer_batch`` of them (or
  ``sequencer_hold_ms``) and execute back-to-back, so one sequencer
  flush covers the whole batch and no RESULT leaves the gateway while
  its commit is still buffered, and
* feeds wall-clock latencies into the same MetricsRegistry /
  LatencyBreakdown / Chrome-trace pipeline the DES uses.

:class:`~repro.compute.chaos.LiveChaosController` injects real
``SIGKILL``s: the gateway applies an armed invocation's KV write, kills
the worker, and never replies — durable effect, unrecorded completion,
the adversarial case the exactly-once audit exists for.

Graceful shutdown: SIGTERM/SIGINT stops admission, drains in-flight
invocations, and still produces a (partial) result.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..config import SystemConfig
from ..errors import UnknownOpError
from ..faults import CircuitBreaker, RetryPolicy
from ..observe import (
    CAT_ATTEMPT,
    CAT_INVOCATION,
    CAT_QUEUE,
    CAT_RECOVERY,
    CAT_SERVICE,
    LatencyBreakdown,
    Span,
    Tracer,
)
from ..observe.distributed import (
    WORKER_SPAN_BLOCK,
    ParentRef,
    TelemetrySink,
)
from ..observe.flightrec import FlightRecorder
from ..recovery import LeaseTable, Orphan, RecoveryCoordinator
from ..runtime.local import LocalRuntime
from ..runtime.services import ServiceBackend
from ..simulation.metrics import (
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    TimeWeightedGauge,
)
from ..simulation.rng import derive_seed
from ..tags import instance_tag
from ..workloads.base import Request, Workload
from . import rpc
from .base import ComputePlane
from .chaos import KillEvent, LiveChaosController
from .pool import WorkerPool
from .worker import WorkloadSpec

#: (target, method) → cost-kind label for wall-clock op accounting.
_OP_KIND = {
    ("log", "append"): "log_append",
    ("log", "cond_append"): "log_append",
    ("log", "read_prev"): "log_read",
    ("log", "read_next"): "log_read",
    ("log", "read_stream"): "log_read",
    ("log", "_record_at_offset"): "log_read",
    ("kv", "get_optional"): "db_read",
    ("kv", "get_with_version"): "db_read",
    ("kv", "put"): "db_write",
    ("kv", "conditional_put"): "db_cond_write",
    ("mv", "read_version"): "db_read_version",
    ("mv", "write_version"): "db_write_version",
}


def _build_op_table(
    backend: ServiceBackend,
) -> Dict[Tuple[str, str], Callable[..., Any]]:
    """The closed RPC surface: the public names of the four substrate
    surfaces (properties and plain attributes behind a getter, read per
    call) plus the private names :data:`_OP_KIND` declares."""
    table: Dict[Tuple[str, str], Callable[..., Any]] = {}
    for target in ("log", "kv", "mv", "plane"):
        obj = getattr(backend, target)
        names = [n for n in dir(obj) if not n.startswith("_")]
        names += [m for t, m in _OP_KIND if t == target]
        for name in names:
            if (isinstance(getattr(type(obj), name, None), property)
                    or not callable(getattr(obj, name))):
                table[target, name] = partial(getattr, obj, name)
            else:
                table[target, name] = getattr(obj, name)
    plane = backend.plane
    table["plane", "describe"] = lambda: dict(
        plane.describe(), labelled=plane.labelled
    )
    return table


@dataclass
class _WorkerSlot:
    """Gateway-side state for one worker process."""

    worker_id: int
    #: The pool's :class:`~repro.compute.pool.WorkerProcess` (pid and
    #: exit code, as the template reports them).
    process: Any
    breaker: CircuitBreaker
    writer: Optional[asyncio.Transport] = None
    busy_with: Optional[str] = None
    alive: bool = True
    #: Latched once the failure detector declares this worker dead —
    #: a late frame from a not-actually-dead worker must not revive
    #: its lease or trigger a second takeover/respawn.
    declared: bool = False
    invocations: int = 0
    spawned_at_ms: float = 0.0
    #: Set by the READY frame: the worker finished building its runtime
    #: stack and is safe to dispatch to (an INVOKE before that would
    #: interleave with its setup RPCs).
    ready: bool = False
    #: Fork request → READY, wall; and who took over after a death.
    ready_ms: Optional[float] = None
    replaced_by: Optional[int] = None
    #: Last storage op this worker was sent a RESULT for — the forensic
    #: anchor a SIGKILL dump names ("the worker saw up to here").
    last_acked_op: Optional[str] = None

    @property
    def connected(self) -> bool:
        return self.writer is not None and self.alive

    @property
    def idle(self) -> bool:
        return self.connected and self.ready and self.busy_with is None


class _AppendCoalescer:
    """Event-loop group commit for the log append stream.

    With the ``batched`` sequencer, a commit acknowledged the instant
    its append executes may still sit in the sequencer's buffer.  The
    coalescer closes that window: append/cond_append OP frames park
    here until ``batch`` of them arrive (or ``hold_ms`` passes), then
    the whole batch executes back-to-back and the sequencer is flushed
    *before* control returns to the event loop — so every RESULT a
    worker observes describes a committed append.  Workers block on
    their RESULT, so each can have at most one frame parked.
    """

    __slots__ = ("plane", "batch", "hold_s", "_pending",
                 "_flush_handle", "flushes", "coalesced", "max_batch")

    def __init__(self, plane: "LocalhostComputePlane", batch: int,
                 hold_ms: float):
        self.plane = plane
        self.batch = max(1, int(batch))
        self.hold_s = max(0.0, float(hold_ms)) / 1000.0
        self._pending: List[Any] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self.flushes = 0
        self.coalesced = 0
        self.max_batch = 0

    def submit(self, slot: "_WorkerSlot", frame: Any) -> None:
        self._pending.append((slot, frame))
        self.coalesced += 1
        if len(self._pending) >= self.batch:
            self.flush()
        elif self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                self.hold_s, self.flush
            )

    def flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        pending, self._pending = self._pending, []
        if not pending:
            return
        self.flushes += 1
        self.max_batch = max(self.max_batch, len(pending))
        for slot, frame in pending:
            self.plane._execute_op(slot, frame)
        # One sequencer flush covers the batch; nothing downstream of
        # this method runs until it returns, so the RESULT frames
        # written above cannot be observed before the commits land.
        sequencer = getattr(self.plane.backend.log, "sequencer", None)
        flush_commits = getattr(sequencer, "flush", None)
        if flush_commits is not None:
            flush_commits()

    def stats(self) -> Dict[str, Any]:
        return {
            "coalesced": self.coalesced,
            "flushes": self.flushes,
            "max_batch": self.max_batch,
            "mean_batch": (self.coalesced / self.flushes
                           if self.flushes else 0.0),
        }


@dataclass
class _Inflight:
    """One admitted invocation, from arrival to (deduped) completion."""

    instance_id: str
    request: Request
    arrival_ms: float
    attempt: int = 1
    pending_since_ms: float = 0.0
    dispatched_at_ms: float = 0.0
    worker_id: int = -1
    #: Exact-sum stage vector (wall ms); remainder lands in "compute".
    stages: Dict[str, float] = field(default_factory=dict)
    ops_wall_ms: float = 0.0
    #: OP frames served on this invocation's behalf, over all attempts.
    rpc_ops: int = 0
    root_span: Optional[Span] = None
    queue_span: Optional[Span] = None
    attempt_span: Optional[Span] = None


class _GatewayConnection(asyncio.Protocol):
    """One accepted connection (a worker, or a ``repro top`` observer):
    every frame a read completes is decoded, served and answered inside
    ``data_received`` — one loop turn per read, no reader task to wake."""

    def __init__(self, plane: "LocalhostComputePlane"):
        self.plane = plane
        self.decoder = rpc.FrameDecoder()
        self.transport: Optional[asyncio.Transport] = None
        self.slot: Optional[_WorkerSlot] = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if self.slot is not None:
            self.slot.writer = None

    def data_received(self, data: bytes) -> None:
        try:
            for frame in self.decoder.feed(data):
                if not self._serve(frame):
                    self.transport.close()
                    return
        except rpc.RpcFrameError as exc:
            self.plane._note_frame_error(self.slot, exc)
            self.transport.close()

    def _serve(self, frame: Any) -> bool:
        """Handle one frame; False closes the connection."""
        plane, slot, kind = self.plane, self.slot, frame[0]
        if kind == rpc.STATUS:
            plane.status_queries += 1  # observer (``repro top``) polling
            rpc.write_frame_async(
                self.transport, (rpc.STATUS, plane._status_payload())
            )
        elif kind == rpc.HELLO:
            slot = self.slot = plane._slots.get(frame[1])
            if slot is None or slot.declared:
                return False
            slot.writer = self.transport
            plane.lease.add_node(slot.worker_id, plane._now())
        elif slot is None:
            return False
        elif kind == rpc.OP:
            return plane._handle_op(slot, frame)  # False: SIGKILLed here
        elif kind == rpc.DONE:
            plane._handle_done(slot, frame)
        elif kind == rpc.HEARTBEAT:
            plane._renew(slot)
        elif kind == rpc.TELEMETRY:
            plane._renew(slot)
            if frame[2]:
                plane.telemetry_sink.apply(slot.worker_id, frame[2])
        elif kind == rpc.READY:
            slot.ready = True
            slot.ready_ms = plane._now() - slot.spawned_at_ms
            plane._pump()
        return True


class LocalhostComputePlane(ComputePlane):
    """Real-process execution on one machine (Lithops-localhost shape)."""

    name = "localhost"

    def __init__(
        self,
        workload: Workload,
        protocol: str,
        config: Optional[SystemConfig] = None,
        enable_switching: bool = False,
        tracer: Optional[Tracer] = None,
        *,
        workload_spec: Optional[WorkloadSpec] = None,
        num_workers: int = 4,
        kills: int = 0,
        requests: Optional[int] = None,
        compute_sleep_scale: float = 1.0,
        crash_f: float = 0.0,
        deadline_s: float = 180.0,
        telemetry: Optional[bool] = None,
        flightrec_dir: Optional[str] = None,
        max_inflight: Optional[int] = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1 (or None: off)")
        if enable_switching:
            raise NotImplementedError(
                "protocol switching is not wired into the live plane yet"
            )
        if workload_spec is None:
            raise ValueError(
                "localhost backend needs a picklable workload_spec "
                "(workers instantiate their own workload copy)"
            )
        self.config = (config if config is not None
                       else SystemConfig()).validate()
        self.protocol = protocol
        self.workload = workload
        self.workload_spec = workload_spec
        self.num_workers = int(num_workers)
        self.requests_override = requests
        self.compute_sleep_scale = compute_sleep_scale
        self.crash_f = crash_f
        self.deadline_s = deadline_s
        self.tracer = tracer
        #: Telemetry shipping defaults to "on iff traced": a traced run
        #: wants the worker spans; an untraced, un-opted-in run must
        #: send zero extra RPCs (the PR 3 invariant, live edition).
        self.telemetry = (tracer is not None if telemetry is None
                          else bool(telemetry))
        self.flightrec_dir = flightrec_dir
        self.flightrec = FlightRecorder("gateway", self._now)
        self._discovery_path: Optional[str] = None

        # Gateway-side stack: the REAL plane + a runtime used only for
        # populate and post-run audit probes (never for the workload).
        self.backend = ServiceBackend(self.config)
        self._runtime = LocalRuntime(
            self.config, protocol=protocol, backend=self.backend
        )
        self.backend.tracer = tracer
        self._ops = _build_op_table(self.backend)
        self._t0 = time.monotonic()
        self._runtime.now_fn = self._now
        workload.register(self._runtime)
        workload.populate(self._runtime)

        metrics = self.backend.metrics
        self.latencies = metrics.register(
            "request_latency", LatencyRecorder("request-latency")
        )
        self.latency_series = metrics.register(
            "latency_over_time", TimeSeries("latency-over-time")
        )
        self.throughput = metrics.register("completions", ThroughputMeter())
        self.detection_latency = metrics.register(
            "failure_detection_latency",
            LatencyRecorder("failure-detection"),
        )
        self.breakdown = LatencyBreakdown(protocol)
        self._op_wall: Dict[str, LatencyRecorder] = {}
        self.log_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("log-bytes", 0.0,
                              self.backend.log.storage_bytes()),
            store="log",
        )
        self.db_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("db-bytes", 0.0,
                              self.backend.kv.storage_bytes()),
            store="db",
        )
        self.telemetry_sink = TelemetrySink(tracer, metrics)
        self.rpc_frame_errors = metrics.counters("rpc_frame_errors")
        self.status_queries = 0

        # Admission control: None = unbounded (the historical default);
        # an integer bounds |inflight| and sheds deterministically past
        # it — the shed count is the ``admission_rejections`` metric.
        self.max_inflight = max_inflight
        self.rejected_requests = 0
        self._admission_counter = metrics.counters("admission_rejections")
        # Gateway-side group commit, active only when the storage plane
        # actually runs a batched sequencer (sharded backend).
        self._coalescer: Optional[_AppendCoalescer] = None
        if (self.config.storage.sequencer == "batched"
                and hasattr(self.backend.log, "sequencer")):
            self._coalescer = _AppendCoalescer(
                self,
                self.config.storage.sequencer_batch,
                self.config.storage.sequencer_hold_ms,
            )

        recovery = self.config.recovery
        self.lease = LeaseTable((), recovery.lease_ms)
        self.coordinator = RecoveryCoordinator(
            self._now, self._runtime.tracker, self._enqueue_orphan,
            tracer=tracer,
        )
        metrics.register("takeover_latency",
                         self.coordinator.takeover_latency)
        self.retry_policy = RetryPolicy.from_config(self.config.resilience)
        self._dispatch_jitter = self.backend.rng.stream("live-dispatch")
        self.chaos: Optional[LiveChaosController] = None
        self._kills_requested = int(kills)

        # Run state --------------------------------------------------------
        self._slots: Dict[int, _WorkerSlot] = {}
        self._next_worker_id = 0
        self._inflight: Dict[str, _Inflight] = {}
        self._completed: Set[str] = set()
        self._failed: Dict[str, str] = {}
        self.duplicate_completions = 0
        self.crashed_attempts = 0
        self._time_by_kind: Dict[str, float] = {}
        self.faulted_attempts = 0
        self.node_crashes = 0
        self.orphaned_invocations = 0
        self._workers_ever = 0
        self._queue: Deque[str] = deque()
        self._rpc_ops = 0
        self._done_event: Optional[asyncio.Event] = None
        self._draining = False
        self.aborted_reason: Optional[str] = None
        self._issued = 0
        self._arrivals_done = False
        self._warmup_ms = 0.0
        self._sockdir: Optional[tempfile.TemporaryDirectory] = None
        self._socket_path = ""
        self._pool: Optional[WorkerPool] = None
        self.on_request_complete = None

    # -- ComputePlane ----------------------------------------------------

    @property
    def runtime(self) -> LocalRuntime:
        return self._runtime

    @property
    def on_request_complete(self):
        return self._on_request_complete

    @on_request_complete.setter
    def on_request_complete(self, callback) -> None:
        self._on_request_complete = callback

    def _now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    def _sample_storage(self) -> None:
        """Feed the storage gauges the plane's byte counters: after
        each served op (nothing else writes the plane during a run) and
        when the result is built."""
        now = self._now()
        self.log_gauge.observe(self.backend.log.storage_bytes(), now)
        self.db_gauge.observe(self.backend.kv.storage_bytes(), now)

    @property
    def rpc_ops_per_req(self) -> float:
        """The round-trip budget: OP frames served per completed
        invocation (a killed attempt's ops count towards its request)."""
        return self._rpc_ops / max(1, len(self._completed))

    # -- entry point -----------------------------------------------------

    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ):
        """Issue a seeded open-loop schedule and drive it to completion.

        ``rate_per_s`` and ``duration_ms`` fix the request count
        (``rate × duration``, overridable via the constructor) and the
        seeded exponential inter-arrival gaps; unlike the DES the run
        ends when every admitted request has completed (or the deadline
        or a drain signal cuts it short), not at a simulated horizon.
        """
        self._warmup_ms = warmup_ms
        total = (self.requests_override
                 if self.requests_override is not None
                 else max(1, round(rate_per_s * duration_ms / 1000.0)))
        self.chaos = LiveChaosController(
            self._kills_requested, total,
            self.backend.rng.stream("live-chaos"),
        )
        self._t0 = time.monotonic()
        asyncio.run(self._run_async(rate_per_s, total))
        return self._build_result(rate_per_s, duration_ms)

    # -- async orchestration ---------------------------------------------

    async def _run_async(self, rate_per_s: float, total: int) -> None:
        loop = asyncio.get_running_loop()
        self._done_event = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self._begin_drain,
                                        signal.Signals(sig).name)
            except (NotImplementedError, RuntimeError):
                pass

        self._sockdir = tempfile.TemporaryDirectory(prefix="repro-live-")
        self._socket_path = os.path.join(self._sockdir.name, "gateway.sock")
        server = await loop.create_unix_server(
            lambda: _GatewayConnection(self), path=self._socket_path
        )
        self._write_discovery_file()
        self._pool = WorkerPool(
            loop, self.workload_spec.module, self._template_lost
        )
        for _ in range(self.num_workers):
            self._spawn_worker()

        tasks = [
            asyncio.ensure_future(self._arrival_task(rate_per_s, total)),
            asyncio.ensure_future(self._dispatch_task()),
            asyncio.ensure_future(self._detector_task()),
        ]
        for task in tasks:
            task.add_done_callback(self._task_crashed)
        # The plane is built and its workers spawned: park those tens of
        # thousands of objects outside the collector, so a full pass
        # that falls inside a long run scans what the run allocated.
        gc.freeze()
        try:
            await asyncio.wait_for(
                self._done_event.wait(), timeout=self.deadline_s
            )
        except asyncio.TimeoutError:
            self.aborted_reason = (
                f"deadline ({self.deadline_s:.0f}s) exceeded with "
                f"{len(self._inflight)} invocations outstanding"
            )
        finally:
            gc.unfreeze()  # here, not in close(): a sweep may never close
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._shutdown_workers()
            server.close()
            await server.wait_closed()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            self._remove_discovery_file()
            if self._sockdir is not None:
                self._sockdir.cleanup()
                self._sockdir = None

    def _task_crashed(self, task: "asyncio.Task") -> None:
        """A gateway task must never die silently: abort the run with
        the error instead of hanging until the deadline."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        import traceback

        traceback.print_exception(type(exc), exc, exc.__traceback__)
        self.aborted_reason = (
            f"gateway task crashed: {type(exc).__name__}: {exc}"
        )
        if self._done_event is not None:
            self._done_event.set()

    def _template_lost(self, reason: str) -> None:
        """No template, no workers (it failed to import the workload,
        or died mid-run): end the run now, not at the deadline."""
        self.aborted_reason = f"worker template failed: {reason}"
        self.flightrec.record("template-failed", error=reason)
        self.dump_flightrecorder("template-failed", meta={"error": reason})
        self._done_event.set()

    def _begin_drain(self, signame: str) -> None:
        """SIGTERM/SIGINT: stop admission, let in-flight work finish."""
        if not self._draining:
            self._draining = True
            self.aborted_reason = f"drained on {signame}"
            self._check_done()

    def _check_done(self) -> None:
        outstanding = len(self._inflight)
        if outstanding == 0 and (self._arrivals_done or self._draining):
            self._done_event.set()

    # -- observability plumbing --------------------------------------------

    def _write_discovery_file(self) -> None:
        """Publish the gateway socket for ``python -m repro top``.

        Only written when a flight-recorder directory is configured —
        that directory doubles as the rendezvous point, so unobserved
        runs leave no files behind.
        """
        if self.flightrec_dir is None:
            return
        os.makedirs(self.flightrec_dir, exist_ok=True)
        self._discovery_path = os.path.join(
            self.flightrec_dir, "live-gateway.json"
        )
        with open(self._discovery_path, "w", encoding="utf-8") as f:
            json.dump({
                "socket": self._socket_path,
                "pid": os.getpid(),
                "protocol": self.protocol,
            }, f)

    def _remove_discovery_file(self) -> None:
        if self._discovery_path is not None:
            try:
                os.remove(self._discovery_path)
            except OSError:
                pass
            self._discovery_path = None

    def dump_flightrecorder(
        self, trigger: str, meta: Optional[Dict[str, Any]] = None
    ) -> Optional[str]:
        """Dump the gateway ring (+ each worker's last-shipped window)
        to ``flightrec_dir``; no-op (returns None) when undirected."""
        if self.flightrec_dir is None:
            return None
        lanes = {
            f"worker-{wid}": events
            for wid, events in self.telemetry_sink.worker_flightrec.items()
        }
        return self.flightrec.dump(
            self.flightrec_dir, trigger, meta=meta, extra_lanes=lanes
        )

    def _status_payload(self) -> Dict[str, Any]:
        """Point-in-time run state served on STATUS frames."""
        now = self._now()
        workers = []
        for slot in self._slots.values():
            workers.append({
                "worker": slot.worker_id,
                "alive": slot.alive,
                "ready": slot.ready,
                "declared": slot.declared,
                "busy_with": slot.busy_with,
                "invocations": slot.invocations,
                "last_acked_op": slot.last_acked_op,
            })
        have = self.latencies.count > 0
        return {
            "now_ms": now,
            "protocol": self.protocol,
            "issued": self._issued,
            "completed": len(self._completed),
            "inflight": len(self._inflight),
            "rejected": self.rejected_requests,
            "failed": len(self._failed),
            "kills": self.chaos.delivered if self.chaos else 0,
            "orphans": self.orphaned_invocations,
            "recovered": self.coordinator.recovered,
            "duplicates": self.duplicate_completions,
            "rate_per_s": self.throughput.rate_per_sec(),
            "median_ms": self.latencies.median() if have else 0.0,
            "p99_ms": self.latencies.p99() if have else 0.0,
            "telemetry_batches": self.telemetry_sink.batches,
            "rpc_frame_errors": sum(
                self.rpc_frame_errors.as_dict().values()
            ),
            "rpc_ops_per_req": self.rpc_ops_per_req,
            "workers": workers,
            "aborted": self.aborted_reason,
        }

    # -- workers ----------------------------------------------------------

    def _spawn_worker(self) -> _WorkerSlot:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        worker_config = self.config.with_seed(
            derive_seed(self.config.seed, f"live-worker-{worker_id}")
        )
        # Traced runs hand each worker a disjoint block of the gateway
        # tracer's span-id space, so shipped spans keep their ids and
        # cross-process parent links survive absorption verbatim.
        span_base = None
        if self.tracer is not None and self.telemetry:
            span_base = self.tracer.reserve_block(WORKER_SPAN_BLOCK)
        process = self._pool.fork(worker_id, (
            self._socket_path, worker_id, worker_config,
            self.protocol, self.workload_spec,
            self.config.recovery.heartbeat_interval_ms,
            self.compute_sleep_scale, self.crash_f,
            self._t0, span_base, self.telemetry,
        ))
        slot = _WorkerSlot(
            worker_id, process,
            CircuitBreaker(
                f"worker-{worker_id}",
                failure_threshold=(
                    self.config.resilience.breaker_failure_threshold
                ),
                cooldown_ops=self.config.resilience.breaker_cooldown_ops,
            ),
        )
        slot.spawned_at_ms = self._now()
        self._slots[worker_id] = slot
        self._workers_ever += 1
        self.flightrec.record("spawn", worker=worker_id,
                              template=self._pool.pid,
                              traced=span_base is not None)
        # The lease clock starts at HELLO, not here: the template's boot
        # can exceed the lease, and a worker must not be declared dead
        # before it had a chance to heartbeat.
        return slot

    async def _shutdown_workers(self) -> None:
        if self._coalescer is not None:
            # Answer any worker still parked behind the hold window
            # before telling it to shut down.
            self._coalescer.flush()
        # The loop keeps serving meanwhile: a SIGTERMed worker's final
        # telemetry is absorbed, one still booting is not waited out.
        await self._pool.stop()
        for slot in self._slots.values():
            if slot.writer is not None and slot.process.exitcode is None:
                # Not reaped, so the template was lost: this EOF ends it.
                slot.writer.close()
        # Everything a reaped worker wrote is in its socket, EOF last.
        while any(slot.writer is not None for slot in self._slots.values()):
            await asyncio.sleep(0)

    # -- tasks -------------------------------------------------------------

    async def _arrival_task(self, rate_per_s: float, total: int) -> None:
        request_rng = self.backend.rng.stream("requests")
        arrival_rng = self.backend.rng.stream("arrivals")
        mean_gap_s = 1.0 / rate_per_s if rate_per_s > 0 else 0.0
        # Open loop on an absolute schedule: due times come from the
        # seeded gaps alone and latency is timed from them, so a stalled
        # gateway shows as latency, not as a lower offered rate.
        due_ms = self._now()
        for _ in range(total):
            if self._draining:
                break
            request = self.workload.next_request(request_rng)
            self._admit(request, due_ms if mean_gap_s else self._now())
            if mean_gap_s:
                due_ms += 1000.0 * float(arrival_rng.exponential(mean_gap_s))
                late_ms = self._now() - due_ms
                if late_ms < 0.0:
                    await asyncio.sleep(-late_ms / 1000.0)
        self._arrivals_done = True
        self._check_done()

    def _admit(self, request: Request, now: float) -> None:
        if (self.max_inflight is not None
                and len(self._inflight) >= self.max_inflight):
            # Deterministic shed: the decision depends only on the
            # (seeded) arrival sequence and completion order, not on a
            # coin flip.  A shed request is never started — no instance
            # id, no tracker entry, no audit obligation.
            self.rejected_requests += 1
            self._admission_counter.add("shed")
            self.flightrec.record(
                "admission-shed", func=request.func_name,
                inflight=len(self._inflight),
            )
            return
        instance_id = self._runtime.new_instance_id()
        self._runtime.tracker.start(
            instance_id, self.backend.log.next_seqnum
        )
        inv = _Inflight(instance_id, request, arrival_ms=now,
                        pending_since_ms=now)
        if self.tracer is not None:
            inv.root_span = self.tracer.start_span(
                f"invoke:{request.func_name}", CAT_INVOCATION, now,
                trace_id=instance_id, func=request.func_name, live=True,
            )
            inv.queue_span = inv.root_span.child(
                "worker-queue", CAT_QUEUE, now
            )
        self._inflight[instance_id] = inv
        self._issued += 1
        self._queue.append(instance_id)
        self._pump()

    def _pump(self) -> None:
        """Dispatch queued invocations while a worker can take one.

        Runs synchronously wherever a (worker, invocation) pair can
        appear — admit, READY, DONE, takeover; a failed INVOKE write
        requeues inside this loop and goes to the next worker.
        """
        queue = self._queue
        while queue:
            slot = self._pick_worker()
            if slot is None:
                return
            inv = self._inflight.get(queue.popleft())
            if inv is not None:
                self._dispatch(inv, slot)

    async def _dispatch_task(self) -> None:
        """Backoff poller for the one case no event covers:
        ``CircuitBreaker.consult()`` only cools down when consulted, so
        a backlog facing only idle workers behind open breakers needs
        something to keep asking.  Holds no invocation while it sleeps.
        """
        fruitless = 0
        while True:
            backoff_ms = self.retry_policy.backoff_ms(
                min(fruitless + 1, self.retry_policy.max_attempts),
                self._dispatch_jitter,
            )
            await asyncio.sleep(backoff_ms / 1000.0)
            backlog = len(self._queue)
            self._pump()
            fruitless = fruitless + 1 if len(self._queue) == backlog else 0

    def _pick_worker(self) -> Optional[_WorkerSlot]:
        best = None
        for slot in self._slots.values():
            if not slot.idle:
                continue
            # consult() is True while the breaker is open (degraded):
            # prefer other workers until this one's cooldown elapses.
            if slot.breaker.consult():
                continue
            if best is None or slot.invocations < best.invocations:
                best = slot
        return best

    def _dispatch(self, inv: _Inflight, slot: _WorkerSlot) -> None:
        now = self._now()
        inv.stages["queue_wait"] = (
            inv.stages.get("queue_wait", 0.0) + now - inv.pending_since_ms
        )
        inv.dispatched_at_ms = now
        inv.worker_id = slot.worker_id
        slot.busy_with = inv.instance_id
        slot.invocations += 1
        if inv.queue_span is not None:
            inv.queue_span.finish(now)
            inv.queue_span = None
        if inv.root_span is not None:
            inv.attempt_span = inv.root_span.child(
                f"attempt-{inv.attempt}", CAT_ATTEMPT, now,
                attempt=inv.attempt, node=slot.worker_id,
            )
        self.flightrec.record(
            "dispatch", instance=inv.instance_id,
            worker=slot.worker_id, attempt=inv.attempt,
        )
        # Trace context header: the worker parents its execution span
        # (and, transitively, its per-op RPC spans) under this attempt.
        ctx = None
        if self.telemetry and inv.attempt_span is not None:
            ctx = (inv.instance_id, inv.attempt_span.span_id)
        # What the platform knows about the instance rides the frame.
        # The log frontier: read now it is <= the one the worker would
        # ask for, so only a more conservative watermark.  The step log:
        # the protocol's getStepLogs read, served here instead of over a
        # round trip (a log_read stage, not an OP frame) — nothing for a
        # fresh instance, the orphan's records on a takeover; a straggler
        # appending after this snapshot wins the logCondAppend at that
        # step and the worker adopts its record, as after any read.
        log = self.backend.log
        started = time.monotonic()
        step_log = log.read_stream(instance_tag(inv.instance_id))
        inv.ops_wall_ms = wall_ms = (time.monotonic() - started) * 1000.0
        inv.stages["log_read"] = inv.stages.get("log_read", 0.0) + wall_ms
        self._note_op("log_read", wall_ms)
        invoke = (rpc.INVOKE, inv.instance_id, inv.request.func_name,
                  inv.request.input, log.next_seqnum, inv.attempt, step_log)
        try:
            rpc.write_frame_async(
                slot.writer, invoke if ctx is None else invoke + (ctx,)
            )
        except (ConnectionError, OSError, RuntimeError):
            # The worker died between pick and write: give the slot's
            # lease-expiry path its orphan handling, requeue now.
            slot.alive = False
            slot.breaker.record_failure()
            slot.busy_with = None
            inv.pending_since_ms = now
            if inv.attempt_span is not None:
                inv.attempt_span.finish(now)
                inv.attempt_span = None
            self._queue.append(inv.instance_id)  # _pump's loop retries

    async def _detector_task(self) -> None:
        poll_s = self.config.recovery.detector_poll_ms / 1000.0
        # A spawned child that never connects (import failure, OOM) is
        # outside the lease table; give it a generous grace then declare.
        connect_grace_ms = max(10_000.0, 10 * self.config.recovery.lease_ms)
        while True:
            await asyncio.sleep(poll_s)
            now = self._now()
            for worker_id in self.lease.check(now):
                self._worker_declared_dead(worker_id, now)
            for slot in list(self._slots.values()):
                if (slot.writer is None and not slot.declared
                        and now - slot.spawned_at_ms > connect_grace_ms):
                    self._worker_declared_dead(slot.worker_id, now)

    # -- connection handling ----------------------------------------------

    def _note_frame_error(self, slot: Optional[_WorkerSlot],
                          exc: rpc.RpcFrameError,
                          direction: str = "recv") -> None:
        """Protocol-level corruption: count it, remember it, dump."""
        self.rpc_frame_errors.add(direction)
        worker = slot.worker_id if slot is not None else None
        self.flightrec.record(
            "rpc-frame-error", worker=worker, error=str(exc),
            frame_bytes=exc.frame_bytes,
        )
        self.dump_flightrecorder("rpc-frame-error", meta={
            "worker": worker, "error": str(exc),
            "frame_bytes": exc.frame_bytes,
        })

    def _renew(self, slot: _WorkerSlot) -> None:
        """Renew a worker's lease — unless it was already declared dead
        (a straggler frame must not resurrect a taken-over worker)."""
        if slot.alive and not slot.declared:
            self.lease.renew(slot.worker_id, self._now())

    def _handle_op(self, slot: _WorkerSlot, frame: Any) -> bool:
        """Route one storage op frame.

        Log appends coalesce into a gateway-side group commit when the
        batched sequencer is active (the reply comes from the flush);
        everything else executes inline.  Returns False only when the
        inline path killed the worker at this op.
        """
        if (self._coalescer is not None and frame[2] == "log"
                and frame[3] in ("append", "cond_append")):
            self._renew(slot)
            self._coalescer.submit(slot, frame)
            return True
        return self._execute_op(slot, frame)

    def _execute_op(self, slot: _WorkerSlot, frame: Any) -> bool:
        """Apply one storage op; returns False if the worker was killed."""
        _, seq, target, method, args, kwargs = frame[:6]
        ctx = frame[6] if len(frame) > 6 else None
        self._renew(slot)
        serve_span = None
        if self.tracer is not None and ctx is not None:
            # Parent the gateway-side service span under the worker's
            # client-side RPC span: one trace shows the round trip from
            # both ends, with the gap being wire + event-loop time.
            trace_id, parent_span_id = ctx
            serve_span = self.tracer.start_span(
                f"serve:{target}.{method}", CAT_SERVICE, self._now(),
                trace_id=trace_id,
                parent=(ParentRef(parent_span_id)
                        if parent_span_id is not None else None),
                node=slot.worker_id,
            )
        inv = self._inflight.get(slot.busy_with or "")
        if inv is not None:
            inv.rpc_ops += 1
        kill = (
            self.chaos is not None
            and slot.busy_with is not None
            and slot.alive
            and self.chaos.should_kill(target, method)
        )
        started = time.monotonic()
        try:
            op = self._ops.get((target, method))
            if op is None:
                self.flightrec.record("unknown-op", worker=slot.worker_id,
                                      op=f"{target}.{method}")
                raise UnknownOpError(
                    f"{target}.{method} is not a storage op",
                    service=target, op=method,
                )
            ok, payload = True, rpc.encode_value(
                op(*rpc.decode_value(args), **rpc.decode_value(kwargs))
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to worker
            ok, payload = False, rpc.encode_error(exc)
        wall_ms = (time.monotonic() - started) * 1000.0
        self._sample_storage()
        if serve_span is not None:
            if not ok:
                serve_span.annotate("error", self._now())
            serve_span.finish(self._now())
        op_kind = _OP_KIND.get((target, method))
        if op_kind is not None:
            self._note_op(op_kind, wall_ms)
            if inv is not None:
                inv.stages[op_kind] = inv.stages.get(op_kind, 0.0) + wall_ms
                inv.ops_wall_ms += wall_ms
        if kill and ok:
            # Apply-then-SIGKILL, and never reply: the write is durable,
            # the completion is lost, replay must cope.
            self._sigkill_worker(slot, target, method)
            return False
        try:
            rpc.write_frame_async(
                slot.writer, (rpc.RESULT, seq, ok, payload, wall_ms)
            )
        except rpc.RpcFrameError as exc:
            # The reply itself violates the cap: the worker can never
            # be answered on this stream, so treat the connection as
            # corrupt and let the lease machinery reclaim the slot.
            self._note_frame_error(slot, exc, "send")
            return False
        slot.last_acked_op = f"{target}.{method}#{seq}"
        return True

    def _note_op(self, kind: str, wall_ms: float) -> None:
        recorder = self._op_wall.get(kind)
        if recorder is None:
            recorder = self.backend.metrics.register(
                "op_wall_ms", LatencyRecorder(f"op-wall-{kind}"), kind=kind
            )
            self._op_wall[kind] = recorder
        recorder.record(wall_ms)

    def _sigkill_worker(self, slot: _WorkerSlot, target: str,
                        method: str) -> None:
        now = self._now()
        event = KillEvent(
            worker_id=slot.worker_id, pid=slot.process.pid or -1,
            instance_id=slot.busy_with or "?",
            op=f"{target}.{method}", at_ms=now,
            completed_before=len(self._completed),
        )
        self._pool.signal(slot.worker_id, signal.SIGKILL)
        slot.alive = False
        slot.breaker.record_failure()
        self.chaos.record_kill(event)
        self.node_crashes += 1
        if self.tracer is not None:
            self.tracer.instant(
                "sigkill", now, trace_id=event.instance_id,
                node=slot.worker_id, op=event.op,
            )
        self.flightrec.record(
            "sigkill", worker=slot.worker_id, pid=event.pid,
            instance=event.instance_id, op=event.op,
            last_acked_op=slot.last_acked_op,
        )
        self.dump_flightrecorder("sigkill", meta={
            "worker": slot.worker_id,
            "pid": event.pid,
            "instance": event.instance_id,
            "killed_at_op": event.op,
            "last_acked_op": slot.last_acked_op,
        })

    def _handle_done(self, slot: _WorkerSlot, frame: Any) -> None:
        _, worker_id, instance_id, ok, payload = frame
        now = self._now()
        self._renew(slot)
        if slot.busy_with == instance_id:
            slot.busy_with = None
            self._pump()  # the successor goes out before the bookkeeping
        inv = self._inflight.get(instance_id)
        if inv is None or instance_id in self._completed:
            self.duplicate_completions += 1
            self.flightrec.record("duplicate-done", worker=worker_id,
                                  instance=instance_id)
            return
        slot.breaker.record_success()
        self.flightrec.record("done", worker=worker_id,
                              instance=instance_id, ok=bool(ok))
        if not ok:
            # Terminal invocation failure (retries exhausted or a
            # permanent fault): surface it, don't hang the run.
            error = rpc.decode_error(payload)
            self._failed[instance_id] = type(error).__name__
            self._finish_invocation(inv, now, failed=True)
            return
        output, attempts, cost_by_kind, _worker_wall_ms = payload
        # Worker-internal lost attempts (BernoulliCrashes / service
        # faults absorbed by LocalRuntime's retry loop); numbering
        # started at ``inv.attempt``, the attempt this worker was sent.
        self.crashed_attempts += max(0, int(attempts) - inv.attempt)
        for kind, ms in cost_by_kind.items():
            self._time_by_kind[kind] = (
                self._time_by_kind.get(kind, 0.0) + ms
            )
        self._completed.add(instance_id)
        self._rpc_ops += inv.rpc_ops
        latency = now - inv.arrival_ms
        exec_wall = now - inv.dispatched_at_ms
        inv.stages["compute"] = (
            inv.stages.get("compute", 0.0)
            + max(0.0, exec_wall - inv.ops_wall_ms)
        )
        self._finish_invocation(inv, now)
        if inv.arrival_ms >= self._warmup_ms:
            self.latencies.record(latency)
            self.throughput.record(now)
            self.breakdown.record(self._exact_stages(inv, latency))
        self.latency_series.record(now, latency)
        if self.chaos is not None:
            self.chaos.note_completion(len(self._completed))
        if self._on_request_complete is not None:
            self._on_request_complete(inv.request, latency)

    @staticmethod
    def _exact_stages(inv: _Inflight, latency: float) -> Dict[str, float]:
        """Stage vector summing exactly to the e2e wall latency."""
        stages = dict(inv.stages)
        residual = latency - sum(stages.values())
        stages["compute"] = max(0.0, stages.get("compute", 0.0) + residual)
        drift = latency - sum(stages.values())
        if drift:  # clamped above: shave the difference off queueing
            stages["queue_wait"] = max(
                0.0, stages.get("queue_wait", 0.0) + drift
            )
        return stages

    def _finish_invocation(self, inv: _Inflight, now: float,
                           failed: bool = False) -> None:
        self._runtime.tracker.finish(inv.instance_id)
        self._inflight.pop(inv.instance_id, None)
        if inv.attempt_span is not None:
            inv.attempt_span.finish(now)
        if inv.root_span is not None:
            if failed:
                inv.root_span.annotate("failed", now)
            inv.root_span.finish(now)
        self._check_done()

    # -- failure handling --------------------------------------------------

    def _worker_declared_dead(self, worker_id: int, now: float) -> None:
        slot = self._slots.get(worker_id)
        if slot is None or slot.declared:
            return
        slot.declared = True
        slot.alive = False
        slot.breaker.record_failure()
        # Fence: a declared-dead worker must not keep running (it may be
        # wedged rather than dead; its invocation is about to be taken
        # over, so any late effect from it would race the replay).
        self._pool.signal(worker_id, signal.SIGKILL)
        if slot.writer is not None:
            try:
                slot.writer.close()
            except (ConnectionError, OSError):
                pass
            slot.writer = None
        kill = next(
            (e for e in (self.chaos.events if self.chaos else ())
             if e.worker_id == worker_id and e.detected_at_ms is None),
            None,
        )
        if kill is not None:
            kill.detected_at_ms = now
            self.detection_latency.record(now - kill.at_ms)
        if self.tracer is not None:
            self.tracer.instant("declared-dead", now, node=worker_id)
        self.flightrec.record(
            "declared-dead", worker=worker_id,
            expected=kill is not None, busy_with=slot.busy_with,
            last_acked_op=slot.last_acked_op,
        )
        if kill is None:
            # An *unexpected* death (no chaos kill to blame) is exactly
            # the forensic case; chaos kills already dumped at delivery.
            self.dump_flightrecorder("lease-expiry", meta={
                "worker": worker_id,
                "busy_with": slot.busy_with,
                "last_acked_op": slot.last_acked_op,
            })
        stranded = slot.busy_with
        slot.busy_with = None
        if stranded is not None and stranded in self._inflight:
            inv = self._inflight[stranded]
            self.orphaned_invocations += 1
            if inv.attempt_span is not None:
                inv.attempt_span.annotate("orphaned", now)
                inv.attempt_span.finish(now)
                inv.attempt_span = None
            self.coordinator.add_orphan(Orphan(
                instance_id=stranded,
                request=inv.request,
                arrival_ms=inv.arrival_ms,
                next_attempt=inv.attempt + 1,
                node_id=worker_id,
                orphaned_at_ms=now,
            ))
        self.coordinator.node_failed(worker_id, now)
        # Keep the pool at strength: a dead worker's replacement gets a
        # fresh id, process, breaker, and lease.
        if not self._draining and not self._done_event.is_set():
            slot.replaced_by = self._spawn_worker().worker_id

    def _enqueue_orphan(self, orphan: Orphan) -> None:
        """RecoveryCoordinator redispatch hook → back into the queue."""
        inv = self._inflight.get(orphan.instance_id)
        if inv is None:
            return
        now = self._now()
        inv.attempt = orphan.next_attempt
        inv.stages["takeover_gap"] = (
            inv.stages.get("takeover_gap", 0.0)
            + now - inv.dispatched_at_ms
        )
        inv.pending_since_ms = now
        inv.worker_id = -1
        if inv.root_span is not None:
            inv.queue_span = inv.root_span.child(
                "worker-queue", CAT_QUEUE, now, redispatched=True,
            )
            inv.root_span.annotate(
                "redispatched", now, category=CAT_RECOVERY,
            )
        self._queue.append(orphan.instance_id)
        self._pump()

    # -- results -----------------------------------------------------------

    def _build_result(self, rate_per_s: float, duration_ms: float):
        from ..harness.platform import RunResult

        self._sample_storage()
        now = self._now()
        have = self.latencies.count > 0
        wall_s = now / 1000.0
        sink = self.telemetry_sink
        rpc_rt = sink.merged_latency("rpc_roundtrip_ms")
        per_worker: List[Dict[str, Any]] = []
        for slot in self._slots.values():
            wrt = sink.worker_metric(slot.worker_id, "rpc_roundtrip_ms")
            kill = next(
                (e for e in (self.chaos.events if self.chaos else ())
                 if e.worker_id == slot.worker_id), None,
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
        return RunResult(
            protocol=self.protocol,
            workload=self.workload.name,
            offered_rate_per_s=rate_per_s,
            duration_ms=duration_ms,
            completed=len(self._completed),
            crashed_attempts=self.crashed_attempts,
            faulted_attempts=self.faulted_attempts,
            median_ms=self.latencies.median() if have else 0.0,
            p99_ms=self.latencies.p99() if have else 0.0,
            mean_ms=self.latencies.mean() if have else 0.0,
            throughput_per_s=(
                len(self._completed) / wall_s if wall_s > 0 else 0.0
            ),
            avg_log_bytes=self.log_gauge.time_average(now),
            avg_db_bytes=self.db_gauge.time_average(now),
            avg_total_bytes=(self.log_gauge.time_average(now)
                             + self.db_gauge.time_average(now)),
            latency_series=self.latency_series,
            counters=self.backend.counters.as_dict(),
            time_by_kind=dict(self._time_by_kind),
            extras={
                "backend": self.name,
                "wall_ms": now,
                "requests_issued": self._issued,
                "requests_shed": self.rejected_requests,
                "max_inflight": self.max_inflight,
                "append_coalescer": (
                    self._coalescer.stats()
                    if self._coalescer is not None else None
                ),
                "workers": self.num_workers,
                "workers_spawned": self._workers_ever,
                "kills_delivered": (
                    self.chaos.delivered if self.chaos else 0
                ),
                "kill_events": (
                    self.chaos.summary() if self.chaos else []
                ),
                "duplicate_completions": self.duplicate_completions,
                "failed_invocations": dict(self._failed),
                "aborted": self.aborted_reason,
                "telemetry_batches": sink.batches,
                "worker_spans_absorbed": sink.spans_absorbed,
                "rpc_frame_errors": sum(
                    self.rpc_frame_errors.as_dict().values()
                ),
                "rpc_p50_ms": (rpc_rt.median() if rpc_rt.count else None),
                "rpc_p99_ms": (rpc_rt.p99() if rpc_rt.count else None),
                "rpc_ops_per_req": self.rpc_ops_per_req,
                "per_worker": per_worker,
                "status_queries": self.status_queries,
            },
            node_crashes=self.node_crashes,
            orphaned_invocations=self.orphaned_invocations,
            recovered_orphans=self.coordinator.recovered,
            detection_ms=self.detection_latency,
            takeover_ms=self.coordinator.takeover_latency,
            breakdown=self.breakdown,
            metrics=self.backend.metrics.snapshot(now_ms=now),
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()  # joined by run(); this is the other paths
        self._slots.clear()
        # A plane is tens of thousands of objects held in reference
        # cycles, so a caller that builds planes back to back (a sweep,
        # a benchmark) leaves each one to the cyclic collector, whose
        # full pass (~40 ms on this heap) then falls wherever the
        # allocation counters happen to reach it: mid-burst in the next
        # plane's gateway, or in whatever the caller runs in between.
        # Teardown serves nothing, so pay for the pass here; it also
        # restarts the collector's schedule, which puts the next full
        # pass ~120 young passes away (a 1 000-request burst with its
        # construction and audit makes ~60).
        gc.collect()

