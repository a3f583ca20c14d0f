"""The live gateway's scheduler: worker slots, the queue, admission.

A :class:`Dispatcher` sends an admitted invocation to an idle worker
slot the moment such a pair exists — on admit, READY, DONE and takeover
— and keeps each invocation's books from arrival to (deduped)
completion: attempt number, exact-sum stage vector, OP frames served.
It knows no socket, event loop or process; fake slots and two callables
drive it in a test.  Past the optional admission bound arrivals are shed
deterministically — counted in ``admission_rejections``, never started,
never audited — instead of growing the queue without limit.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set

from ..observe import (
    CAT_ATTEMPT,
    CAT_INVOCATION,
    CAT_QUEUE,
    CAT_RECOVERY,
    LatencyBreakdown,
    Span,
    Tracer,
)
from ..observe.flightrec import FlightRecorder
from ..recovery import Orphan
from ..runtime.local import LocalRuntime
from ..runtime.services import ServiceBackend
from ..simulation.metrics import LatencyRecorder, ThroughputMeter, TimeSeries
from ..tags import instance_tag
from ..workloads.base import Request


@dataclass
class _WorkerSlot:
    """Gateway-side state for one worker process."""

    worker_id: int
    #: The pool's :class:`~repro.compute.pool.WorkerProcess` (pid and
    #: exit code, as the template reports them).
    process: Any
    #: The worker's connection, set at HELLO (whatever the frame server
    #: writes to; ``None`` until then and after the connection is lost).
    writer: Any = None
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
    def idle(self) -> bool:
        return (self.writer is not None and self.alive and self.ready
                and self.busy_with is None)


@dataclass
class _Inflight:
    """One admitted invocation, from arrival to (deduped) completion."""

    instance_id: str
    request: Request
    arrival_ms: float
    attempt: int = 1
    pending_since_ms: float = 0.0
    dispatched_at_ms: float = 0.0
    #: Exact-sum stage vector (wall ms); remainder lands in "compute".
    stages: Dict[str, float] = field(default_factory=dict)
    ops_wall_ms: float = 0.0
    #: OP frames served on this invocation's behalf, over all attempts.
    rpc_ops: int = 0
    root_span: Optional[Span] = None
    queue_span: Optional[Span] = None
    attempt_span: Optional[Span] = None


class Dispatcher:
    """Queue, slots and per-invocation bookkeeping of one live run."""

    def __init__(
        self, backend: ServiceBackend, runtime: LocalRuntime,
        now: Callable[[], float], tracer: Optional[Tracer],
        flightrec: FlightRecorder, send_invoke: Callable[..., None],
        finished: Callable[[Request, Optional[float]], None],
        max_inflight: Optional[int] = None, telemetry: bool = False,
    ):
        """``send_invoke(slot, instance_id, func, input, frontier,
        attempt, step_log, ctx)`` writes the INVOKE (the frame server's);
        ``finished(request, latency_ms)`` hears of every settled
        invocation, ``latency_ms`` None for a terminal failure."""
        self.backend = backend
        self._runtime = runtime
        self._now = now
        self.tracer = tracer
        self.flightrec = flightrec
        self._send_invoke = send_invoke
        self._finished = finished
        #: None = unbounded; an integer bounds |inflight|.
        self.max_inflight = max_inflight
        self.telemetry = telemetry
        self.warmup_ms = 0.0

        metrics = backend.metrics
        self.latencies = metrics.register(
            "request_latency", LatencyRecorder("request-latency")
        )
        self.latency_series = metrics.register(
            "latency_over_time", TimeSeries("latency-over-time")
        )
        self.throughput = metrics.register("completions", ThroughputMeter())
        self.breakdown = LatencyBreakdown(runtime.router.default_name)
        self._admission_counter = metrics.counters("admission_rejections")
        self._op_wall: Dict[str, LatencyRecorder] = {}

        self.slots: Dict[int, _WorkerSlot] = {}
        self.queue: Deque[str] = deque()
        self.inflight: Dict[str, _Inflight] = {}
        self.completed: Set[str] = set()
        self.failed: Dict[str, str] = {}
        self.issued = 0
        self.rejected = 0
        self.duplicate_completions = 0
        #: Attempts lost inside a worker (absorbed by its retry loop),
        #: split as the DES splits them: to a crash, to a service fault.
        self.crashed_attempts = 0
        self.faulted_attempts = 0
        self.rpc_ops = 0
        self.time_by_kind: Dict[str, float] = {}

    # -- admission and dispatch ---------------------------------------------

    def admit(self, request: Request, now: float) -> None:
        if (self.max_inflight is not None
                and len(self.inflight) >= self.max_inflight):
            # Deterministic shed: the decision depends only on the
            # (seeded) arrival sequence and completion order, not on a
            # coin flip.  A shed request is never started — no instance
            # id, no tracker entry, no audit obligation.
            self.rejected += 1
            self._admission_counter.add("shed")
            self.flightrec.record(
                "admission-shed", func=request.func_name,
                inflight=len(self.inflight),
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
        self.inflight[instance_id] = inv
        self.issued += 1
        self.queue.append(instance_id)
        self.pump()

    def pump(self) -> None:
        """Dispatch queued invocations while a worker can take one.

        Runs synchronously wherever a (worker, invocation) pair can
        appear — admit, READY, DONE, takeover; a failed INVOKE write
        requeues inside this loop and goes to the next worker.
        """
        queue = self.queue
        while queue:
            slot = self._pick_worker()
            if slot is None:
                return
            inv = self.inflight.get(queue.popleft())
            if inv is not None:
                self._dispatch(inv, slot)

    def ready(self, slot: _WorkerSlot) -> None:
        """READY frame: the worker may now be dispatched to."""
        slot.ready = True
        slot.ready_ms = self._now() - slot.spawned_at_ms
        self.pump()

    def _pick_worker(self) -> Optional[_WorkerSlot]:
        best = None
        for slot in self.slots.values():
            if slot.idle and (best is None
                              or slot.invocations < best.invocations):
                best = slot
        return best

    def _dispatch(self, inv: _Inflight, slot: _WorkerSlot) -> None:
        now = self._now()
        inv.stages["queue_wait"] = (
            inv.stages.get("queue_wait", 0.0) + now - inv.pending_since_ms
        )
        inv.dispatched_at_ms = now
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
        try:
            self._send_invoke(
                slot, inv.instance_id, inv.request.func_name,
                inv.request.input, log.next_seqnum, inv.attempt, step_log,
                ctx,
            )
        except (ConnectionError, OSError, RuntimeError):
            # The worker died between pick and write: give the slot's
            # lease-expiry path its orphan handling, requeue now.
            slot.alive = False
            slot.busy_with = None
            inv.pending_since_ms = now
            if inv.attempt_span is not None:
                inv.attempt_span.finish(now)
                inv.attempt_span = None
            self.queue.append(inv.instance_id)  # pump's loop retries

    # -- bookkeeping ----------------------------------------------------------

    def _note_op(self, kind: str, wall_ms: float) -> None:
        recorder = self._op_wall.get(kind)
        if recorder is None:
            recorder = self.backend.metrics.register(
                "op_wall_ms", LatencyRecorder(f"op-wall-{kind}"), kind=kind
            )
            self._op_wall[kind] = recorder
        recorder.record(wall_ms)

    def book_op(self, slot: _WorkerSlot, kind: Optional[str],
                wall_ms: float) -> None:
        """One OP frame was served for ``slot``: count it towards the
        slot's invocation and book its wall time under ``kind``."""
        inv = self.inflight.get(slot.busy_with or "")
        if inv is not None:
            inv.rpc_ops += 1
        if kind is not None:
            self._note_op(kind, wall_ms)
            if inv is not None:
                inv.stages[kind] = inv.stages.get(kind, 0.0) + wall_ms
                inv.ops_wall_ms += wall_ms

    @property
    def rpc_ops_per_req(self) -> float:
        """The round-trip budget: OP frames served per completed
        invocation (a killed attempt's ops count towards its request)."""
        return self.rpc_ops / max(1, len(self.completed))

    def handle_done(self, slot: _WorkerSlot, instance_id: str, ok: bool,
                    payload: Any) -> None:
        """A DONE frame's fields; ``payload`` is the decoded error when
        ``ok`` is false."""
        now = self._now()
        if slot.busy_with == instance_id:
            slot.busy_with = None
            self.pump()  # the successor goes out before the bookkeeping
        inv = self.inflight.get(instance_id)
        if inv is None or instance_id in self.completed:
            self.duplicate_completions += 1
            self.flightrec.record("duplicate-done", worker=slot.worker_id,
                                  instance=instance_id)
            return
        self.flightrec.record("done", worker=slot.worker_id,
                              instance=instance_id, ok=bool(ok))
        if not ok:
            # Terminal invocation failure (retries exhausted or a
            # permanent fault): surface it, don't hang the run.
            self.failed[instance_id] = type(payload).__name__
            self._finish(inv, now, None)
            return
        _output, attempts, cost_by_kind, _worker_wall_ms, faulted = payload
        # Worker-internal lost attempts (BernoulliCrashes / service
        # faults absorbed by LocalRuntime's retry loop); numbering
        # started at ``inv.attempt``, the attempt this worker was sent.
        lost = max(0, int(attempts) - inv.attempt)
        faulted = min(lost, int(faulted))
        self.faulted_attempts += faulted
        self.crashed_attempts += lost - faulted
        for kind, ms in cost_by_kind.items():
            self.time_by_kind[kind] = self.time_by_kind.get(kind, 0.0) + ms
        self.completed.add(instance_id)
        self.rpc_ops += inv.rpc_ops
        latency = now - inv.arrival_ms
        exec_wall = now - inv.dispatched_at_ms
        inv.stages["compute"] = (
            inv.stages.get("compute", 0.0)
            + max(0.0, exec_wall - inv.ops_wall_ms)
        )
        if inv.arrival_ms >= self.warmup_ms:
            self.latencies.record(latency)
            self.throughput.record(now)
            self.breakdown.record(self._exact_stages(inv, latency))
        self.latency_series.record(now, latency)
        self._finish(inv, now, latency)

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

    def _finish(self, inv: _Inflight, now: float,
                latency: Optional[float]) -> None:
        self._runtime.tracker.finish(inv.instance_id)
        self.inflight.pop(inv.instance_id, None)
        if inv.attempt_span is not None:
            inv.attempt_span.finish(now)
        if inv.root_span is not None:
            if latency is None:
                inv.root_span.annotate("failed", now)
            inv.root_span.finish(now)
        self._finished(inv.request, latency)

    # -- takeover -------------------------------------------------------------

    def strand(self, slot: _WorkerSlot, now: float) -> Optional[_Inflight]:
        """``slot`` was declared dead: free it and return the invocation
        it was running, if that is still owed a completion."""
        stranded, slot.busy_with = slot.busy_with, None
        inv = self.inflight.get(stranded or "")
        if inv is not None and inv.attempt_span is not None:
            inv.attempt_span.annotate("orphaned", now)
            inv.attempt_span.finish(now)
            inv.attempt_span = None
        return inv

    def requeue(self, orphan: Orphan) -> None:
        """RecoveryCoordinator redispatch hook → back into the queue."""
        inv = self.inflight.get(orphan.instance_id)
        if inv is None:
            return
        now = self._now()
        inv.attempt = orphan.next_attempt
        inv.stages["takeover_gap"] = (
            inv.stages.get("takeover_gap", 0.0)
            + now - inv.dispatched_at_ms
        )
        inv.pending_since_ms = now
        if inv.root_span is not None:
            inv.queue_span = inv.root_span.child(
                "worker-queue", CAT_QUEUE, now, redispatched=True,
            )
            inv.root_span.annotate(
                "redispatched", now, category=CAT_RECOVERY,
            )
        self.queue.append(orphan.instance_id)
        self.pump()
