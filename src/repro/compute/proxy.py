"""Worker-side RPC proxies over the gateway's real storage plane.

A live worker runs the full runtime stack — protocols,
:class:`~repro.runtime.services.InstanceServices`, retries, breakers —
unchanged; only the substrate duck types are swapped for proxies that
forward each call over the worker's socket to the gateway, which
applies it to the one true :class:`~repro.storageplane.StoragePlane`
and replies.  The gateway's event loop applies operations one at a
time, so cross-worker races serialize exactly where they would in a
real deployment: at the storage service, not inside the workers.

Forwarding is generic (``__getattr__`` → named RPC), so the proxies
track the substrate surface automatically; only non-picklable edges
are special-cased (listener registration is a local no-op, log-record
results travel through the :mod:`repro.compute.rpc` codec).  The
worker's :class:`~repro.sharedlog.RecordCache` stays real and local —
node-local caching is part of the system under test.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import ServiceUnavailableError
from ..observe.tracing import CAT_SERVICE
from ..storageplane.routing import base_key, stable_hash
from . import rpc


class GatewayConnection:
    """One worker's socket to the gateway, shared with its heartbeat
    thread (sends are locked; the worker main thread is the only
    reader — :meth:`call` and the INVOKE loop both read through
    :attr:`recv` — so replies never interleave).

    When the live plane runs traced, the worker attaches a wall-clock
    tracer plus a per-invocation *scope* (trace id + parent span); each
    storage RPC then records its own client-side span, ships its span
    id to the gateway in the OP header (so the gateway can parent its
    service span under it), and splits the measured round trip into
    gateway service time (returned on the RESULT frame) and wire/loop
    overhead.  All of it is keyed off ``tracer is None`` — untraced
    connections send the exact pre-existing frames and allocate
    nothing extra.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.recv = rpc.FrameReader(sock).recv
        self.send_lock = threading.Lock()
        self._op_seq = 0
        # Tracing / telemetry hooks (assigned by worker_main when the
        # plane runs with observability on; all default off).
        self.tracer: Any = None
        self.now_fn: Optional[Callable[[], float]] = None
        self.proc: Optional[str] = None
        self.scope_trace_id: Optional[str] = None
        self.scope_parent: Any = None
        self.rpc_roundtrip: Any = None   # LatencyRecorder or None
        self.rpc_wire: Any = None        # LatencyRecorder or None

    def set_scope(self, trace_id: Optional[str], parent: Any) -> None:
        """Declare the invocation whose spans future RPCs belong to.

        Only the worker main thread issues RPCs (the heartbeat thread
        never calls :meth:`call`), so a plain attribute is race-free.
        """
        self.scope_trace_id = trace_id
        self.scope_parent = parent

    def send(self, frame: Any) -> None:
        with self.send_lock:
            rpc.send_frame(self.sock, frame)

    def call(self, target: str, method: str, args: tuple,
             kwargs: Dict[str, Any]) -> Any:
        """One storage RPC: send the op, block for its result.

        A torn connection surfaces as the retryable
        :class:`ServiceUnavailableError` — the same class an in-process
        substrate outage raises — so the worker's existing resilience
        loop owns the failure policy.
        """
        self._op_seq += 1
        seq = self._op_seq
        span = None
        ctx = None
        t_start = self.now_fn() if self.now_fn is not None else None
        if self.tracer is not None and self.scope_trace_id is not None:
            span = self.tracer.start_span(
                f"rpc:{target}.{method}", CAT_SERVICE, t_start,
                trace_id=self.scope_trace_id, parent=self.scope_parent,
                proc=self.proc,
            )
            ctx = (self.scope_trace_id, span.span_id)
        try:
            op = (rpc.OP, seq, target, method, args, kwargs)
            self.send(op if ctx is None else op + (ctx,))
            frame = self.recv()
        except (OSError, rpc.RpcFrameError) as exc:
            if span is not None:
                now = self.now_fn()
                span.annotate("error", now, error=type(exc).__name__)
                span.finish(now)
            raise ServiceUnavailableError(
                f"gateway connection lost during {target}.{method}",
                service=target, op=method,
            ) from exc
        if frame is None:
            if span is not None:
                span.finish(self.now_fn())
            raise ServiceUnavailableError(
                f"gateway closed during {target}.{method}",
                service=target, op=method,
            )
        kind = frame[0]
        if kind == rpc.SHUTDOWN:
            raise SystemExit(0)
        if kind != rpc.RESULT or frame[1] != seq:
            raise ServiceUnavailableError(
                f"protocol desync on {target}.{method}: {frame[:2]!r}",
                service=target, op=method,
            )
        ok, payload = frame[2], frame[3]
        service_ms = frame[4] if len(frame) > 4 else None
        if t_start is not None:
            now = self.now_fn()
            wall_ms = now - t_start
            if self.rpc_roundtrip is not None:
                self.rpc_roundtrip.record(wall_ms)
            wire_ms = None
            if service_ms is not None:
                wire_ms = max(0.0, wall_ms - service_ms)
                if self.rpc_wire is not None:
                    self.rpc_wire.record(wire_ms)
            if span is not None:
                if service_ms is not None:
                    span.args["service_ms"] = round(service_ms, 4)
                    span.args["wire_ms"] = round(wire_ms, 4)
                span.finish(now)
        if not ok:
            raise rpc.decode_error(payload)
        return payload


class _ProxySubstrate:
    """Generic method-forwarding proxy for one substrate name."""

    def __init__(self, conn: GatewayConnection, target: str):
        self._conn = conn
        self._target = target

    def __getattr__(self, method: str) -> Callable[..., Any]:
        if method.startswith("__"):
            raise AttributeError(method)
        conn, target = self._conn, self._target

        def remote(*args: Any, **kwargs: Any) -> Any:
            return conn.call(target, method, args, kwargs)

        # Cache the bound forwarder so hot paths skip __getattr__.
        setattr(self, method, remote)
        return remote


class ProxyLog(_ProxySubstrate):
    def __init__(self, conn: GatewayConnection):
        super().__init__(conn, "log")
        #: ``(tag, records)``: the step log that rode the last INVOKE.
        self.prefetch: Optional[Tuple[str, list]] = None

    def read_stream(self, tag: str) -> list:
        """Serve (and drop) the prefetched stream on a tag match — the
        first attempt's ``getStepLogs``; anything else goes over the
        wire: a replay attempt, a child instance, a checkpoint stream."""
        held = self.prefetch
        if held is not None and held[0] == tag:
            self.prefetch = None
            return held[1]
        return self._conn.call("log", "read_stream", (tag,), {})

    # Property on the real log; a method proxy would return a callable.
    @property
    def tail_seqnum(self) -> int:
        return self._conn.call("log", "tail_seqnum", (), {})

    @property
    def next_seqnum(self) -> int:
        return self._conn.call("log", "next_seqnum", (), {})


class ProxyPlane:
    """`StoragePlane` duck type backed by the gateway's real plane.

    Topology (the shard and partition counts) is fetched once at
    connect time.  Placement is a CRC-32 any component can compute, so
    routes are computed here: no RPC, and no memo for the per-instance
    step-log tags to grow.
    """

    name = "proxy"

    def __init__(self, conn: GatewayConnection):
        self.log = ProxyLog(conn)
        self.kv = _ProxySubstrate(conn, "kv")
        self.mv = _ProxySubstrate(conn, "mv")
        topo = conn.call("plane", "describe", (), {})
        self._describe = dict(topo)
        self.num_log_shards = int(topo.get("log_shards", 1))
        self.num_kv_partitions = int(topo.get("kv_partitions", 1))

    def log_shard_of(self, tag: str) -> int:
        return stable_hash(tag) % self.num_log_shards

    def kv_partition_of(self, key: str) -> int:
        return stable_hash(base_key(key)) % self.num_kv_partitions

    def describe(self) -> Dict[str, Any]:
        return dict(self._describe)
