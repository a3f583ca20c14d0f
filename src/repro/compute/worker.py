"""Live worker process: a real `LocalRuntime` behind a unix socket.

Each worker is one OS process in the localhost compute plane's pool.
It connects to the gateway, builds the full runtime stack over an RPC
:class:`~repro.compute.proxy.ProxyPlane` (so every externally visible
effect lands in the gateway's real storage plane), registers the
workload's SSF bodies from a declarative spec, and then serves
``invoke`` frames until told to shut down.  A daemon thread heartbeats
on the shared socket; when the gateway SIGKILLs the process, the
heartbeats stop and the wall-clock lease expires — detection is
measured, not assumed, exactly as in the DES.

The worker deliberately reuses ``LocalRuntime.invoke`` unmodified: the
instance-crash retry loop, protocol init/replay, and the
retry/breaker resilience machinery are the system under test.  Compute
ops sleep real wall time so invocations overlap across the pool — true concurrency, serialized only at the gateway's
storage service like a real deployment.
"""

from __future__ import annotations

import importlib
import signal
import socket
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..observe.distributed import (
    ParentRef,
    WorkerTelemetry,
    make_worker_tracer,
)
from ..observe.flightrec import FlightRecorder
from ..observe.registry import MetricsRegistry
from ..observe.tracing import CAT_ATTEMPT
from ..runtime.failures import BernoulliCrashes
from ..runtime.local import LocalRuntime
from ..runtime.services import ServiceBackend
from ..tags import instance_tag
from . import rpc
from .proxy import GatewayConnection, ProxyPlane


@dataclass(frozen=True)
class WorkloadSpec:
    """Declarative, picklable workload recipe (no code on the wire).

    Workers and the gateway each instantiate their own copy:
    the gateway's for ``populate`` and ground truth, the workers' only
    for ``register`` (the SSF bodies).
    """

    module: str
    qualname: str
    kwargs: Dict[str, Any]

    def build(self) -> Any:
        cls: Any = importlib.import_module(self.module)
        for part in self.qualname.split("."):
            cls = getattr(cls, part)
        return cls(**self.kwargs)


def _heartbeat_loop(conn: GatewayConnection, worker_id: int,
                    interval_s: float, stop: threading.Event,
                    telemetry: Optional[WorkerTelemetry] = None,
                    now_fn: Any = None) -> None:
    while not stop.wait(interval_s):
        try:
            conn.send((rpc.HEARTBEAT, worker_id))
            if telemetry is not None:
                # Piggyback: telemetry ships on the heartbeat cadence,
                # as its own frame but zero extra wakeups, and only
                # when there is something new to say.
                batch = telemetry.batch(now_fn())
                if batch is not None:
                    conn.send((rpc.TELEMETRY, worker_id, batch))
        except (OSError, rpc.RpcFrameError):
            return


def worker_main(
    socket_path: str,
    worker_id: int,
    config: Any,
    protocol: str,
    workload_spec: WorkloadSpec,
    heartbeat_interval_ms: float,
    crash_f: float = 0.0,
    t0: Optional[float] = None,
    span_base: Optional[int] = None,
    telemetry: bool = False,
) -> None:
    """Process entry point (multiprocessing ``spawn`` target).

    ``t0`` is the gateway's monotonic epoch (``CLOCK_MONOTONIC`` is
    system-wide on Linux, so subtracting it puts worker timestamps on
    the gateway's timeline); ``span_base`` is this worker's reserved
    span-id block in the gateway tracer's id space (``None`` = run
    untraced); ``telemetry`` enables metric/span/flight-recorder
    shipping on the heartbeat cadence.  All three default off, so an
    unobserved run sends exactly the pre-existing frames.
    """
    signal.signal(signal.SIGTERM, _raise_system_exit)

    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(socket_path)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
    conn = GatewayConnection(sock)

    epoch = time.monotonic() if t0 is None else t0
    proc_name = f"worker-{worker_id}"

    def now_ms() -> float:
        return (time.monotonic() - epoch) * 1000.0

    # The ring is always on (O(1) appends, no I/O); it only leaves the
    # process when telemetry ships it.
    flightrec = FlightRecorder(proc_name, now_ms)

    tracer = None
    if span_base is not None:
        # Wall-clock tracer over the gateway's timeline; NOT attached
        # to the backend (InstanceServices spans run on virtual
        # cost-trace time, which must not mix with wall clock).  The
        # worker instead records its own root span per invocation and
        # the connection records per-op RPC spans.
        tracer = make_worker_tracer(span_base)
        conn.tracer = tracer
        conn.proc = proc_name

    wreg: Optional[MetricsRegistry] = None
    wtel: Optional[WorkerTelemetry] = None
    completions = busy = None
    if telemetry:
        wreg = MetricsRegistry()
        conn.rpc_roundtrip = wreg.latency("rpc_roundtrip_ms")
        conn.rpc_wire = wreg.latency("rpc_wire_ms")
        completions = wreg.throughput("worker_completions")
        busy = wreg.gauge("worker_busy", start_time_ms=now_ms())
        wtel = WorkerTelemetry(tracer, wreg, flightrec)
    if tracer is not None or telemetry:
        conn.now_fn = now_ms

    conn.send((rpc.HELLO, worker_id))

    plane = ProxyPlane(conn)
    backend = ServiceBackend(config, plane=plane)
    runtime = LocalRuntime(config, protocol=protocol, backend=backend)
    runtime.compute_sleep_fn = lambda ms: time.sleep(ms / 1000.0)
    if crash_f > 0:
        # Worker-side instance crashes (soft failures absorbed by the
        # in-process retry loop), composable with the gateway's hard
        # SIGKILLs — same knob the DES chaos harness turns.
        runtime.crash_policy = BernoulliCrashes(
            crash_f, backend.rng.stream("live-crashes")
        )
    workload = workload_spec.build()
    workload.register(runtime)
    flightrec.record("ready", worker=worker_id, protocol=protocol)

    stop = threading.Event()
    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(conn, worker_id, heartbeat_interval_ms / 1000.0, stop,
              wtel, now_ms),
        daemon=True,
    )
    beat.start()
    # Only now may the gateway dispatch: until READY, an INVOKE frame
    # would interleave with the setup RPCs above and desync the stream.
    conn.send((rpc.READY, worker_id))

    try:
        while True:
            frame = conn.recv()
            if frame is None or frame[0] == rpc.SHUTDOWN:
                return
            if frame[0] != rpc.INVOKE:
                continue
            (_, instance_id, func_name, input_value, frontier, attempt,
             step_log) = frame[:7]
            ctx = frame[7] if len(frame) > 7 else None
            # One-shot: the protocol's getStepLogs read finds the history
            # the gateway sent along; the next INVOKE replaces it unread.
            plane.log.prefetch = (instance_tag(instance_id), step_log)
            root = None
            if tracer is not None and ctx is not None:
                trace_id, parent_id = ctx
                root = tracer.start_span(
                    f"execute:{func_name}", CAT_ATTEMPT, now_ms(),
                    trace_id=trace_id,
                    parent=(ParentRef(parent_id)
                            if parent_id is not None else None),
                    proc=proc_name, worker=worker_id,
                )
                conn.set_scope(trace_id, root)
            flightrec.record("invoke", instance=instance_id,
                             func=func_name)
            if busy is not None:
                busy.set(1.0, now_ms())
            started = time.monotonic()
            try:
                result = runtime.invoke(
                    func_name, input_value, instance_id=instance_id,
                    start_seqnum=frontier, first_attempt=attempt,
                )
                wall_ms = (time.monotonic() - started) * 1000.0
                payload: Tuple[Any, ...] = (
                    rpc.encode_value(result.output),
                    result.attempts,
                    result.cost_by_kind,
                    wall_ms,
                    result.faulted_attempts,
                )
                flightrec.record("done", instance=instance_id,
                                 attempts=result.attempts,
                                 wall_ms=round(wall_ms, 3))
                if completions is not None:
                    completions.record(now_ms())
                if root is not None:
                    root.args["attempts"] = result.attempts
                    root.finish(now_ms())
                    root = None
                conn.send((rpc.DONE, worker_id, instance_id, True, payload))
            except SystemExit:
                return
            except BaseException as exc:  # noqa: BLE001 - forwarded
                flightrec.record("invoke-error", instance=instance_id,
                                 error=type(exc).__name__)
                if root is not None:
                    now = now_ms()
                    root.annotate("error", now,
                                  error=type(exc).__name__)
                    root.finish(now)
                    root = None
                conn.send((
                    rpc.DONE, worker_id, instance_id, False,
                    rpc.encode_error(exc),
                ))
            finally:
                conn.set_scope(None, None)
                if busy is not None:
                    busy.set(0.0, now_ms())
    finally:
        stop.set()
        if wtel is not None:
            # Final drain: ship unfinished spans, the metric tail, and
            # the flight-recorder window before the socket drops.
            try:
                conn.send((rpc.TELEMETRY, worker_id,
                           wtel.batch(now_ms(), final=True)))
            except (OSError, rpc.RpcFrameError):
                pass
        try:
            sock.close()
        except OSError:
            pass


def _raise_system_exit(signum: int, frame: Any) -> None:
    """SIGTERM → graceful drain (the ``finally`` ships final telemetry)."""
    raise SystemExit(0)
