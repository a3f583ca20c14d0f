"""The live gateway's wire: one unix socket, frames in, frames out.

:class:`FrameServer` is the only gateway-side module that touches an
asyncio transport or :mod:`~repro.compute.rpc` framing — what a
non-local transport would replace.  It serves the actual
:class:`~repro.storageplane.StoragePlane` to every worker: operations
from all of them serialize in the event loop, exactly where a real
storage service would serialize them, and ``data_received`` decodes,
serves and answers every frame of a read in that loop turn, against an
op table closed at start-up.  What else a frame means — whose worker
said HELLO, what a DONE completes, whether this op is where chaos kills
— it asks of the :class:`FrameHandlers` it was built with.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from functools import partial
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import UnknownOpError
from ..observe import CAT_SERVICE, Tracer
from ..observe.distributed import ParentRef, TelemetrySink
from ..observe.flightrec import FlightRecorder
from ..runtime.services import ServiceBackend
from ..simulation.metrics import TimeWeightedGauge
from . import rpc
from .status import publish_gateway

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
    return table


def send_invoke(slot: Any, instance_id: str, func: str, input: Any,
                frontier: int, attempt: int, step_log: List[Any],
                ctx: Optional[Tuple[str, int]] = None) -> None:
    """Write one INVOKE frame to ``slot``'s connection (raises what a
    dead connection raises)."""
    invoke = (rpc.INVOKE, instance_id, func, input, frontier, attempt,
              step_log)
    rpc.write_frame_async(
        slot.writer, invoke if ctx is None else invoke + (ctx,)
    )


class FrameHandlers(NamedTuple):
    """What a :class:`FrameServer` asks of the rest of the gateway."""

    #: ``(worker_id, transport) -> slot``, or None to refuse a HELLO.
    hello: Callable[[int, Any], Any]
    #: ``(slot)``: a frame arrived from this worker — proof of life.
    renew: Callable[[Any], None]
    #: ``(slot)``: READY.
    ready: Callable[[Any], None]
    #: ``(slot, instance_id, ok, payload)``: DONE, errors decoded.
    done: Callable[[Any, str, bool, Any], None]
    #: ``(slot, target, method, kind, wall_ms, ok) -> reply?`` — called
    #: between "op applied" and "reply sent"; False: never reply.
    served: Callable[..., bool]
    #: ``() -> STATUS payload``.
    status: Callable[[], Dict[str, Any]]
    #: ``(trigger, meta=...)``: dump the flight recorder.
    dump: Callable[..., Any]


class _AppendCoalescer:
    """Event-loop group commit for the log append stream.

    With the ``batched`` sequencer, a commit acknowledged the instant
    its append executes may still sit in the sequencer's buffer.  The
    coalescer closes that window: append/cond_append OP frames park
    here until ``batch`` (``sequencer_batch``) of them arrive or
    ``hold_ms`` (``sequencer_hold_ms``) passes, then the whole batch
    executes back-to-back and the sequencer is flushed *before* control
    returns to the event loop — so every RESULT a worker acts on
    describes a committed append.  Workers block on their RESULT, so
    each can have at most one frame parked.
    """

    __slots__ = ("_execute", "_log", "batch", "hold_s", "_pending",
                 "_flush_handle", "flushes", "coalesced", "max_batch")

    def __init__(self, execute: Callable[[Any, Any], bool], log: Any,
                 batch: int, hold_ms: float):
        self._execute = execute
        self._log = log
        self.batch = max(1, int(batch))
        self.hold_s = max(0.0, float(hold_ms)) / 1000.0
        self._pending: List[Any] = []
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self.flushes = 0
        self.coalesced = 0
        self.max_batch = 0

    def submit(self, slot: Any, frame: Any) -> None:
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
            self._execute(slot, frame)
        # One sequencer flush covers the batch; nothing downstream of
        # this method runs until it returns, so no op a worker sends on
        # seeing its RESULT is served before the commits land.
        self._log.sequencer.flush()

    def stats(self) -> Dict[str, Any]:
        return {
            "coalesced": self.coalesced,
            "flushes": self.flushes,
            "max_batch": self.max_batch,
            "mean_batch": (self.coalesced / self.flushes
                           if self.flushes else 0.0),
        }


class _Connection(asyncio.Protocol):
    """One accepted connection (a worker, or a ``repro top`` observer):
    every frame a read completes is decoded, served and answered inside
    ``data_received`` — one loop turn per read, no reader task to wake."""

    def __init__(self, server: "FrameServer"):
        self.server = server
        self.decoder = rpc.FrameDecoder()
        self.transport: Optional[asyncio.Transport] = None
        self.slot: Any = None

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
            self.server.note_frame_error(self.slot, exc)
            self.transport.close()

    def _serve(self, frame: Any) -> bool:
        """Handle one frame; False closes the connection."""
        server, slot, kind = self.server, self.slot, frame[0]
        handlers = server.handlers
        if kind == rpc.STATUS:  # an observer (``repro top``) polling
            rpc.write_frame_async(
                self.transport, (rpc.STATUS, handlers.status())
            )
        elif kind == rpc.HELLO:
            self.slot = handlers.hello(frame[1], self.transport)
            return self.slot is not None
        elif slot is None:
            return False
        elif kind == rpc.OP:
            return server.handle_op(slot, frame)  # False: SIGKILLed here
        elif kind == rpc.DONE:
            handlers.renew(slot)
            _, _, instance_id, ok, payload = frame
            handlers.done(slot, instance_id, ok,
                          payload if ok else rpc.decode_error(payload))
        elif kind == rpc.HEARTBEAT:
            handlers.renew(slot)
        elif kind == rpc.TELEMETRY:
            handlers.renew(slot)
            if frame[2]:
                server.telemetry.apply(slot.worker_id, frame[2])
        elif kind == rpc.READY:
            handlers.ready(slot)
        return True


class FrameServer:
    """The op server: decode → execute → encode, one OP at a time."""

    def __init__(self, backend: ServiceBackend, now: Callable[[], float],
                 tracer: Optional[Tracer], flightrec: FlightRecorder,
                 handlers: FrameHandlers):
        self.backend = backend
        self._now = now
        self.tracer = tracer
        self.flightrec = flightrec
        self.handlers = handlers
        self._ops = _build_op_table(backend)
        metrics = backend.metrics
        self.log_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("log-bytes", 0.0, backend.log.storage_bytes()),
            store="log",
        )
        self.db_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("db-bytes", 0.0, backend.kv.storage_bytes()),
            store="db",
        )
        self.telemetry = TelemetrySink(tracer, metrics)
        self._frame_errors = metrics.counters("rpc_frame_errors")
        # Group commit, active only when the storage plane runs a
        # batched sequencer.
        self.coalescer: Optional[_AppendCoalescer] = None
        storage = backend.config.storage
        if storage.sequencer == "batched":
            self.coalescer = _AppendCoalescer(
                self.execute_op, backend.log,
                storage.sequencer_batch, storage.sequencer_hold_ms,
            )

    # -- the socket ---------------------------------------------------------

    async def start(self, discovery_dir: Optional[str],
                    protocol: str) -> str:
        """Listen on a fresh unix socket and return its path.  With a
        ``discovery_dir`` the socket is also published there for ``repro
        top`` (the flight-recorder directory doubles as the rendezvous
        point, so unobserved runs leave no files behind)."""
        self._sockdir = tempfile.TemporaryDirectory(prefix="repro-live-")
        path = os.path.join(self._sockdir.name, "gateway.sock")
        self._server = await asyncio.get_running_loop().create_unix_server(
            lambda: _Connection(self), path=path
        )
        self._discovery = (
            publish_gateway(discovery_dir, path, protocol)
            if discovery_dir is not None else None
        )
        return path

    async def stop(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        if self._discovery is not None:
            try:
                os.remove(self._discovery)
            except OSError:
                pass
        self._sockdir.cleanup()

    @staticmethod
    def disconnect(slot: Any) -> None:
        """Close ``slot``'s connection, if it has one (``connection_lost``
        clears its writer once the loop has run)."""
        if slot.writer is not None:
            slot.writer.close()

    def flush(self) -> None:
        """Answer any worker still parked behind the hold window."""
        if self.coalescer is not None:
            self.coalescer.flush()

    # -- accounting ---------------------------------------------------------

    @property
    def frame_errors(self) -> int:
        return sum(self._frame_errors.as_dict().values())

    def note_frame_error(self, slot: Any, exc: rpc.RpcFrameError,
                         direction: str = "recv") -> None:
        """Protocol-level corruption: count it, remember it, dump."""
        self._frame_errors.add(direction)
        worker = slot.worker_id if slot is not None else None
        self.flightrec.record(
            "rpc-frame-error", worker=worker, error=str(exc),
            frame_bytes=exc.frame_bytes,
        )
        self.handlers.dump("rpc-frame-error", meta={
            "worker": worker, "error": str(exc),
            "frame_bytes": exc.frame_bytes,
        })

    def sample_storage(self) -> None:
        """Feed the storage gauges the plane's byte counters: after
        each served op (nothing else writes the plane during a run) and
        when the result is built."""
        now = self._now()
        self.log_gauge.observe(self.backend.log.storage_bytes(), now)
        self.db_gauge.observe(self.backend.kv.storage_bytes(), now)

    # -- ops ----------------------------------------------------------------

    def handle_op(self, slot: Any, frame: Any) -> bool:
        """Route one storage op frame.

        Log appends coalesce into a gateway-side group commit when the
        batched sequencer is active (the reply comes from the flush);
        everything else executes inline.  Returns False only when the
        inline path killed the worker at this op.
        """
        if (self.coalescer is not None and frame[2] == "log"
                and frame[3] in ("append", "cond_append")):
            self.handlers.renew(slot)
            self.coalescer.submit(slot, frame)
            return True
        return self.execute_op(slot, frame)

    def execute_op(self, slot: Any, frame: Any) -> bool:
        """Apply one storage op; returns False if the worker was killed
        (or can never be answered)."""
        _, seq, target, method, args, kwargs = frame[:6]
        ctx = frame[6] if len(frame) > 6 else None
        key = (target, method)
        handlers = self.handlers
        handlers.renew(slot)
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
        started = time.monotonic()
        try:
            op = self._ops.get(key)
            if op is None:
                self.flightrec.record("unknown-op", worker=slot.worker_id,
                                      op=f"{target}.{method}")
                raise UnknownOpError(
                    f"{target}.{method} is not a storage op",
                    service=target, op=method,
                )
            ok, payload = True, op(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - forwarded to worker
            ok, payload = False, rpc.encode_error(exc)
        wall_ms = (time.monotonic() - started) * 1000.0
        self.sample_storage()
        if serve_span is not None:
            if not ok:
                serve_span.annotate("error", self._now())
            serve_span.finish(self._now())
        if not handlers.served(slot, target, method, _OP_KIND.get(key),
                               wall_ms, ok):
            return False
        try:
            rpc.write_frame_async(
                slot.writer, (rpc.RESULT, seq, ok, payload, wall_ms)
            )
        except rpc.RpcFrameError as exc:
            # The reply itself violates the cap: the worker can never
            # be answered on this stream, so treat the connection as
            # corrupt and let the lease machinery reclaim the slot.
            self.note_frame_error(slot, exc, "send")
            return False
        slot.last_acked_op = f"{target}.{method}#{seq}"
        return True
