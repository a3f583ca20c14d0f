"""Wire protocol between the live gateway and its worker processes.

Frames are length-prefixed pickles of small tuples — ``(kind, ...)``
with string kinds — over a unix-domain socket.  One payload type needs
an explicit codec because naive pickling lies:

* The error taxonomy in :mod:`repro.errors` has subclasses with custom
  constructor signatures (``ConditionalAppendError(message,
  existing_seqnum)``, ...), so ``pickle``'s default
  ``cls(*args)`` reconstruction breaks.  Errors travel as ``(module,
  qualname, args, state)`` and are rebuilt via ``cls.__new__`` so the
  worker re-raises the *same* class — the retry/breaker machinery in
  :class:`~repro.runtime.services.InstanceServices` dispatches on those
  types and must keep working across the process boundary.

Every other payload, :class:`~repro.sharedlog.record.LogRecord`
included (via its ``__reduce__``), pickles natively and travels as it
is.

Only data crosses the wire; no frame carries code.

Framing is defensive: the 4-byte length prefix is validated against a
configurable cap (:data:`MAX_FRAME_BYTES`) *before* any allocation, so
a corrupted or hostile prefix surfaces as the typed
:class:`RpcFrameError` — which the gateway counts in its
``rpc_frame_errors`` metric and treats as a connection-fatal protocol
error — instead of a multi-gigabyte read or a raw ``struct`` overflow.

``INVOKE`` is ``(kind, instance_id, func, input, frontier, attempt,
step_log)``: everything the platform already knows about the instance it
starts, so the worker spends no round trip asking.  ``frontier`` is the
log's next seqnum as the gateway read it at dispatch
(``LocalRuntime.invoke(start_seqnum=)``), ``attempt`` the number of the
attempt being dispatched (``first_attempt=``: 1, or more after a
takeover), and ``step_log`` the instance's step-log records at dispatch
— empty for a fresh instance, the orphan's history on a takeover — which
the worker's :class:`~repro.compute.proxy.ProxyLog` serves to the
protocol's ``getStepLogs`` read.  All six fields are always present:
gateway and worker ship as one commit, so there is no short form.

Trace-context propagation (:mod:`repro.observe.distributed`) rides in
an optional trailing header field on ``INVOKE`` (the gateway's dispatch
context) and ``OP`` (the worker's RPC-span context); ``RESULT`` carries
the gateway-side service time so workers can split wire overhead from
storage-plane service time.  Those three are backwards-shaped: absent
means "untraced", and decoding tolerates the short form.
"""

from __future__ import annotations

import importlib
import pickle
import socket
import struct
from typing import Any, Iterator, Optional, Tuple

_LEN = struct.Struct("<I")

#: Frame-size cap (bytes) applied on both send and receive.  Large
#: enough for any legitimate payload this harness ships (values are
#: small; telemetry batches are bounded), small enough that a fuzzed
#: length prefix can never drive a giant allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024


class RpcFrameError(Exception):
    """A frame violated the wire protocol (oversized or undecodable).

    Typed so the gateway can count protocol-level corruption
    (``rpc_frame_errors``) and trigger a flight-recorder dump, distinct
    from the retryable service errors the resilience machinery owns.
    """

    def __init__(self, message: str, frame_bytes: Optional[int] = None):
        super().__init__(message)
        self.frame_bytes = frame_bytes


#: Frame kinds, worker -> gateway.
HELLO = "hello"
READY = "ready"
HEARTBEAT = "hb"
OP = "op"
DONE = "done"
TELEMETRY = "tel"

#: Frame kinds, gateway -> worker.
INVOKE = "invoke"
RESULT = "res"
SHUTDOWN = "bye"

#: Frame kind, observer <-> gateway (``python -m repro top``).
STATUS = "status"

_ERROR_TAG = "__error__"


# -- value codec ---------------------------------------------------------

def encode_value(value: Any) -> Any:
    """The identity: every payload pickles natively.

    Kept only because ``benchmarks/e2e/cells.py`` imports it, and that
    tree changes only together with the benchmark contract (ROADMAP
    item 6), which drops the call and this function together.  Nothing
    under ``src/`` calls it.
    """
    return value


def encode_error(exc: BaseException) -> Tuple[str, str, tuple, dict]:
    """Flatten an exception for transport (class identity preserved)."""
    state = {
        k: v for k, v in vars(exc).items()
        if isinstance(v, (int, float, str, bool, bytes, type(None)))
    }
    return (
        type(exc).__module__, type(exc).__qualname__, exc.args, state,
    )


def decode_error(payload: Tuple[str, str, tuple, dict]) -> BaseException:
    """Rebuild the original exception class without calling its ctor."""
    module, qualname, args, state = payload
    try:
        cls: Any = importlib.import_module(module)
        for part in qualname.split("."):
            cls = getattr(cls, part)
    except (ImportError, AttributeError):
        cls = RuntimeError
    try:
        exc = cls.__new__(cls)
        BaseException.__init__(exc, *args)
        exc.__dict__.update(state)
    except Exception:
        exc = RuntimeError(f"{qualname}{args!r}")
    return exc


# -- framing helpers ------------------------------------------------------

def _encode_checked(frame: Any, max_bytes: Optional[int]) -> bytes:
    blob = pickle.dumps(frame, protocol=pickle.HIGHEST_PROTOCOL)
    cap = MAX_FRAME_BYTES if max_bytes is None else max_bytes
    if len(blob) > cap:
        raise RpcFrameError(
            f"outgoing frame of {len(blob)} bytes exceeds the "
            f"{cap}-byte cap", frame_bytes=len(blob),
        )
    return _LEN.pack(len(blob)) + blob


def _check_length(length: int, max_bytes: Optional[int]) -> int:
    cap = MAX_FRAME_BYTES if max_bytes is None else max_bytes
    if length > cap:
        raise RpcFrameError(
            f"incoming frame announces {length} bytes, over the "
            f"{cap}-byte cap", frame_bytes=length,
        )
    return length


def _decode_body(body: bytes) -> Any:
    try:
        return pickle.loads(body)
    except Exception as exc:  # pickle raises many concrete types
        raise RpcFrameError(
            f"frame body failed to decode: {type(exc).__name__}: {exc}",
            frame_bytes=len(body),
        ) from exc


# -- one-shot synchronous framing (``repro top``, codec benchmarks) -------

def send_frame(sock: socket.socket, frame: Any,
               max_bytes: Optional[int] = None) -> None:
    sock.sendall(_encode_checked(frame, max_bytes))


def recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes; ``None`` on a clean or torn EOF."""
    chunks = []
    while n:
        chunk = sock.recv(n)
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket,
               max_bytes: Optional[int] = None) -> Optional[Any]:
    header = recv_exact(sock, _LEN.size)
    if header is None:
        return None
    length = _check_length(_LEN.unpack(header)[0], max_bytes)
    body = recv_exact(sock, length)
    if body is None:
        return None
    return _decode_body(body)


# -- event-loop framing (gateway side) ------------------------------------

def write_frame_async(writer: Any, frame: Any,
                      max_bytes: Optional[int] = None) -> None:
    """Queue a frame on an asyncio transport (anything with ``write``;
    no await: small frames ride the transport buffer)."""
    writer.write(_encode_checked(frame, max_bytes))


class FrameDecoder:
    """Pure incremental frame parser: bytes in, whole frames out, no
    I/O and no event loop, however the stream was cut."""

    __slots__ = ("_buf", "_max_bytes")

    def __init__(self, max_bytes: Optional[int] = None):
        self._buf = bytearray()
        self._max_bytes = max_bytes

    def feed(self, data: bytes) -> Iterator[Any]:
        """Buffer ``data`` and iterate the frames it completed.  The cap
        is checked on the prefix alone, before any body is awaited or
        allocated; a violation (or an undecodable body) raises
        :class:`RpcFrameError` after the frames ahead of it."""
        self._buf += data
        return self._drain()

    def _drain(self) -> Iterator[Any]:
        buf, pos = self._buf, 0
        try:
            while len(buf) - pos >= _LEN.size:
                body = pos + _LEN.size
                end = body + _check_length(
                    _LEN.unpack_from(buf, pos)[0], self._max_bytes
                )
                if end > len(buf):
                    break
                pos = end
                yield _decode_body(buf[body:end])
        finally:
            del buf[:pos]


# -- long-lived synchronous framing (worker side) --------------------------

class FrameReader:
    """Blocking reader for a long-lived socket (the worker side): one
    ``recv`` per wake-up through the same :class:`FrameDecoder` the
    gateway uses, frames that arrived together served in order.  A
    socket has one reader, so everything that reads it shares this."""

    __slots__ = ("_sock", "_decoder", "_ready")

    def __init__(self, sock: socket.socket, max_bytes: Optional[int] = None):
        self._sock = sock
        self._decoder = FrameDecoder(max_bytes)
        self._ready: Iterator[Any] = iter(())

    def recv(self) -> Optional[Any]:
        """The next frame; ``None`` on EOF, clean or mid-frame."""
        while True:
            for frame in self._ready:
                return frame
            data = self._sock.recv(65536)
            if not data:
                return None
            self._ready = self._decoder.feed(data)
