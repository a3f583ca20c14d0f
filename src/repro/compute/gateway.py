"""The ``localhost`` compute backend: asyncio gateway + worker pool.

This is the live counterpart of :class:`~repro.harness.platform
.SimPlatform`: the same protocols, the same storage plane, the same
recovery machinery — but the concurrency, the clocks, and the deaths
are real.  One gateway process wires four parts, none of which holds
the plane (each is built from the backend, the clock, the tracer /
flight recorder and the callables it needs):

* :class:`~repro.compute.frames.FrameServer` owns the socket: it serves
  the actual :class:`~repro.storageplane.StoragePlane` to the workers
  and is the only part that touches a transport or a frame;
* :class:`~repro.compute.dispatch.Dispatcher` owns the queue, the
  worker slots and the admission bound, and sends an invocation out the
  moment a (worker, invocation) pair exists; the INVOKE carries what
  the platform already knows about the instance — log frontier, attempt
  number, step log — so a request costs its protocol ops and no round
  trip besides;
* :class:`~repro.compute.takeover.Recovery` owns the leases: wall-clock
  heartbeats, declared-dead → fence → orphan takeover → respawn;
* :class:`~repro.compute.pool.WorkerPool` owns the processes (one
  template, forked workers running the full
  :class:`~repro.runtime.local.LocalRuntime` stack against an RPC proxy
  plane).

The plane itself owns the clock and the run: the seeded open-loop
generator (:func:`paced_arrivals`), start-up and shutdown, the result,
and the one hook that sits between "op applied" and "reply sent" —
:class:`~repro.compute.chaos.LiveChaosController` injects real
``SIGKILL``s there: the gateway applies an armed invocation's KV write,
kills the worker, and never replies — durable effect, unrecorded
completion, the adversarial case the exactly-once audit exists for.
Wall-clock latencies feed the same MetricsRegistry / LatencyBreakdown /
Chrome-trace pipeline the DES uses.

Graceful shutdown: SIGTERM/SIGINT stops admission, drains in-flight
invocations, and still produces a (partial) result.
"""

from __future__ import annotations

import asyncio
import gc
import signal
import time
import traceback
from typing import Any, Callable, Dict, Optional

from ..config import SystemConfig
from ..observe import Tracer
from ..observe.distributed import WORKER_SPAN_BLOCK
from ..observe.flightrec import FlightRecorder
from ..runtime.local import LocalRuntime
from ..runtime.services import ServiceBackend
from ..simulation.rng import RngRegistry, derive_seed
from ..workloads.base import Request, Workload
from .base import ComputePlane, RunResult
from .chaos import KillEvent, LiveChaosController
from .dispatch import Dispatcher, _WorkerSlot
from .frames import FrameHandlers, FrameServer, send_invoke
from .pool import WorkerPool
from .report import run_result, status_payload
from .takeover import Recovery
from .worker import WorkloadSpec


async def paced_arrivals(
    workload: Workload, rng: RngRegistry, rate_per_s: float, total: int,
    now: Callable[[], float], admit: Callable[[Request, float], None],
    stopped: Callable[[], bool],
) -> None:
    """Admit ``total`` seeded requests, open loop on an absolute
    schedule: due times come from the seeded gaps alone and latency is
    timed from them, so a stalled gateway shows as latency, not as a
    lower offered rate.  ``rate_per_s`` 0 admits the backlog at once."""
    request_rng = rng.stream("requests")
    arrival_rng = rng.stream("arrivals")
    mean_gap_s = 1.0 / rate_per_s if rate_per_s > 0 else 0.0
    due_ms = now()
    for _ in range(total):
        if stopped():
            break
        request = workload.next_request(request_rng)
        admit(request, due_ms if mean_gap_s else now())
        if mean_gap_s:
            due_ms += 1000.0 * float(arrival_rng.exponential(mean_gap_s))
            late_ms = now() - due_ms
            if late_ms < 0.0:
                await asyncio.sleep(-late_ms / 1000.0)


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
        self.on_request_complete = None

        # Gateway-side stack: the REAL plane + a runtime used only for
        # populate and post-run audit probes (never for the workload).
        self.backend = ServiceBackend(self.config)
        self.runtime = LocalRuntime(
            self.config, protocol=protocol, backend=self.backend
        )
        self.backend.tracer = tracer
        self._t0 = time.monotonic()
        self.runtime.now_fn = self._now
        workload.register(self.runtime)
        workload.populate(self.runtime)

        self.dispatcher = Dispatcher(
            self.backend, self.runtime, self._now, tracer, self.flightrec,
            send_invoke, self._request_finished,
            max_inflight=max_inflight, telemetry=self.telemetry,
        )
        self.recovery = Recovery(
            self.config.recovery, self._now, self.dispatcher,
            self.runtime.tracker, self.backend.metrics, tracer,
            self.flightrec, fence=self._fence, respawn=self._respawn,
            kills=lambda: self.chaos.events if self.chaos else (),
            dump=self.dump_flightrecorder,
        )
        self.frames = FrameServer(
            self.backend, self._now, tracer, self.flightrec,
            FrameHandlers(
                hello=self.recovery.hello, renew=self.recovery.renew,
                ready=self.dispatcher.ready, done=self.dispatcher.handle_done,
                served=self._op_served, status=self._status_payload,
                dump=self.dump_flightrecorder,
            ),
        )
        self.chaos: Optional[LiveChaosController] = None
        self._kills_requested = int(kills)

        # Run state --------------------------------------------------------
        self._next_worker_id = 0
        self._done_event: Optional[asyncio.Event] = None
        self._draining = False
        self._arrivals_done = False
        self.aborted_reason: Optional[str] = None
        self._socket_path = ""
        self._pool: Optional[WorkerPool] = None

    def _now(self) -> float:
        return (time.monotonic() - self._t0) * 1000.0

    @property
    def rpc_ops_per_req(self) -> float:
        return self.dispatcher.rpc_ops_per_req

    @property
    def crashed_attempts(self) -> int:
        return self.dispatcher.crashed_attempts

    # -- entry point -----------------------------------------------------

    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ) -> RunResult:
        """Issue a seeded open-loop schedule and drive it to completion.

        ``rate_per_s`` and ``duration_ms`` fix the request count
        (``rate × duration``, overridable via the constructor) and the
        seeded exponential inter-arrival gaps; unlike the DES the run
        ends when every admitted request has completed (or the deadline
        or a drain signal cuts it short), not at a simulated horizon.
        """
        self.dispatcher.warmup_ms = warmup_ms
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

        self._socket_path = await self.frames.start(
            self.flightrec_dir, self.protocol
        )
        self._pool = WorkerPool(
            loop, self.workload_spec.module, self._template_lost
        )
        for _ in range(self.num_workers):
            self._spawn_worker()

        tasks = [
            asyncio.ensure_future(self._arrivals(rate_per_s, total)),
            asyncio.ensure_future(self.recovery.detector()),
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
                f"{len(self.dispatcher.inflight)} invocations outstanding"
            )
        finally:
            gc.unfreeze()  # here, not in close(): a sweep may never close
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await self._shutdown_workers()
            await self.frames.stop()
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass

    async def _arrivals(self, rate_per_s: float, total: int) -> None:
        await paced_arrivals(
            self.workload, self.backend.rng, rate_per_s, total, self._now,
            self.dispatcher.admit, lambda: self._draining,
        )
        self._arrivals_done = True
        self._check_done()

    def _task_crashed(self, task: "asyncio.Task") -> None:
        """A gateway task must never die silently: abort the run with
        the error instead of hanging until the deadline."""
        if task.cancelled():
            return
        exc = task.exception()
        if exc is None:
            return
        traceback.print_exception(type(exc), exc, exc.__traceback__)
        self.aborted_reason = (
            f"gateway task crashed: {type(exc).__name__}: {exc}"
        )
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
        if not self.dispatcher.inflight and (
                self._arrivals_done or self._draining):
            self._done_event.set()

    def _request_finished(self, request: Request,
                          latency_ms: Optional[float]) -> None:
        """The dispatcher settled one invocation (``latency_ms`` None: it
        failed terminally)."""
        if latency_ms is not None:
            self.chaos.note_completion(len(self.dispatcher.completed))
            if self.on_request_complete is not None:
                self.on_request_complete(request, latency_ms)
        self._check_done()

    # -- observability plumbing --------------------------------------------

    def dump_flightrecorder(
        self, trigger: str, meta: Optional[Dict[str, Any]] = None
    ) -> Optional[str]:
        """Dump the gateway ring (+ each worker's last-shipped window)
        to ``flightrec_dir``; no-op (returns None) when undirected."""
        if self.flightrec_dir is None:
            return None
        lanes = {
            f"worker-{wid}": events
            for wid, events in self.frames.telemetry.worker_flightrec.items()
        }
        return self.flightrec.dump(
            self.flightrec_dir, trigger, meta=meta, extra_lanes=lanes
        )

    def _status_payload(self) -> Dict[str, Any]:
        return status_payload(
            self._now(), self.protocol, self.dispatcher, self.recovery,
            self.frames, self.chaos, self.aborted_reason,
        )

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
            self.config.recovery.heartbeat_interval_ms, self.crash_f,
            self._t0, span_base, self.telemetry,
        ))
        slot = _WorkerSlot(worker_id, process, spawned_at_ms=self._now())
        self.dispatcher.slots[worker_id] = slot
        self.flightrec.record("spawn", worker=worker_id,
                              template=self._pool.pid,
                              traced=span_base is not None)
        return slot

    def _respawn(self) -> Optional[int]:
        """A worker was declared dead: keep the pool at strength, unless
        the run is ending anyway."""
        if self._draining or self._done_event.is_set():
            return None
        return self._spawn_worker().worker_id

    def _fence(self, slot: _WorkerSlot) -> None:
        self._pool.signal(slot.worker_id, signal.SIGKILL)
        self.frames.disconnect(slot)

    async def _shutdown_workers(self) -> None:
        self.frames.flush()  # before the workers are told to stop
        # The loop keeps serving meanwhile: a SIGTERMed worker's final
        # telemetry is absorbed, one still booting is not waited out.
        await self._pool.stop()
        slots = self.dispatcher.slots.values()
        for slot in slots:
            if slot.writer is not None and slot.process.exitcode is None:
                # Not reaped, so the template was lost: this EOF ends it.
                self.frames.disconnect(slot)
        # Everything a reaped worker wrote is in its socket, EOF last.
        while any(slot.writer is not None for slot in slots):
            await asyncio.sleep(0)

    # -- chaos: between "op applied" and "reply sent" ------------------------

    def _op_served(self, slot: _WorkerSlot, target: str, method: str,
                   kind: Optional[str], wall_ms: float, ok: bool) -> bool:
        """Book the op; False if this is where chaos killed the worker —
        apply-then-SIGKILL, and never reply: the write is durable, the
        completion is lost, replay must cope."""
        self.dispatcher.book_op(slot, kind, wall_ms)
        if (ok and slot.busy_with is not None and slot.alive
                and self.chaos is not None
                and self.chaos.should_kill(target, method)):
            self._sigkill_worker(slot, f"{target}.{method}")
            return False
        return True

    def _sigkill_worker(self, slot: _WorkerSlot, op: str) -> None:
        now = self._now()
        event = KillEvent(
            worker_id=slot.worker_id, pid=slot.process.pid or -1,
            instance_id=slot.busy_with or "?", op=op, at_ms=now,
            completed_before=len(self.dispatcher.completed),
        )
        self._pool.signal(slot.worker_id, signal.SIGKILL)
        slot.alive = False
        self.chaos.record_kill(event)
        if self.tracer is not None:
            self.tracer.instant(
                "sigkill", now, trace_id=event.instance_id,
                node=slot.worker_id, op=op,
            )
        self.flightrec.record(
            "sigkill", worker=slot.worker_id, pid=event.pid,
            instance=event.instance_id, op=op,
            last_acked_op=slot.last_acked_op,
        )
        self.dump_flightrecorder("sigkill", meta={
            "worker": slot.worker_id,
            "pid": event.pid,
            "instance": event.instance_id,
            "killed_at_op": op,
            "last_acked_op": slot.last_acked_op,
        })

    # -- results -----------------------------------------------------------

    def _build_result(self, rate_per_s: float, duration_ms: float
                      ) -> RunResult:
        self.frames.sample_storage()
        return run_result(
            self.name, self.protocol, self.workload.name, rate_per_s,
            duration_ms, self._now(), self.backend, self.dispatcher,
            self.recovery, self.frames, self.chaos,
            workers=self.num_workers, workers_spawned=self._next_worker_id,
            aborted=self.aborted_reason,
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()  # joined by run(); this is the other paths
        self.dispatcher.slots.clear()
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
