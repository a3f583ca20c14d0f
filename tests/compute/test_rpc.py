"""Wire codec tests: values and exceptions must survive the socket."""

import pickle

import pytest

from repro.compute import rpc
from repro.errors import (
    ConditionalAppendError,
    FencedEpochError,
    ServiceUnavailableError,
)
from repro.sharedlog.record import LogRecord


def roundtrip(value):
    blob = pickle.dumps(rpc.encode_value(value))
    return rpc.decode_value(pickle.loads(blob))


def test_plain_values_pass_through():
    for value in (None, 0, 3.5, "key", b"bytes", True):
        assert roundtrip(value) == value


def test_log_record_roundtrip():
    record = LogRecord(7, ("tag-a", "tag-b"), {"op": "write", "v": 1}, 64)
    out = roundtrip(record)
    assert isinstance(out, LogRecord)
    assert out.seqnum == 7
    assert out.tags == ("tag-a", "tag-b")
    assert dict(out.data) == {"op": "write", "v": 1}
    assert out.payload_bytes == 64


def test_log_record_pickles_natively():
    # LogRecord.__reduce__ rebuilds the frozen MappingProxyType on the
    # far side, so the codec's old tagged-tuple special case is retired;
    # raw pickle must keep the payload frozen.
    record = LogRecord(1, ("t",), {"k": "v"}, 0)
    out = pickle.loads(pickle.dumps(record))
    assert out == record
    with pytest.raises(TypeError):
        out.data["k"] = "mutated"


def test_nested_structures_with_records():
    record = LogRecord(3, ("t",), {"x": 1}, 8)
    value = {"records": [record, record], "pair": (record, None), "n": 2}
    out = roundtrip(value)
    assert out["n"] == 2
    assert all(isinstance(r, LogRecord) for r in out["records"])
    assert out["pair"][0].seqnum == 3


def test_error_roundtrip_preserves_class_and_state():
    # Custom ctor signature: pickle's default reconstruction would
    # break; the codec must rebuild the same class with its state.
    exc = ConditionalAppendError("tag occupied", existing_seqnum=41)
    out = rpc.decode_error(pickle.loads(pickle.dumps(rpc.encode_error(exc))))
    assert type(out) is ConditionalAppendError
    assert out.existing_seqnum == 41
    assert "tag occupied" in str(out)


def test_error_roundtrip_retryable_taxonomy():
    # The worker's retry loop dispatches on these classes: identity
    # across the process boundary is what keeps resilience working.
    exc = ServiceUnavailableError("gone", service="log", op="append")
    out = rpc.decode_error(pickle.loads(pickle.dumps(rpc.encode_error(exc))))
    assert type(out) is ServiceUnavailableError
    assert out.service == "log"
    assert out.op == "append"

    fenced = FencedEpochError("stale", stale_epoch=2, current_epoch=5)
    out = rpc.decode_error(
        pickle.loads(pickle.dumps(rpc.encode_error(fenced)))
    )
    assert type(out) is FencedEpochError
    assert out.stale_epoch == 2
    assert out.current_epoch == 5


def test_unknown_error_class_degrades_to_runtime_error():
    payload = ("no.such.module", "Gone", ("boom",), {})
    out = rpc.decode_error(payload)
    assert isinstance(out, RuntimeError)
    assert "Gone" in str(out) or "boom" in str(out)


def test_frame_roundtrip_over_socketpair():
    import socket

    a, b = socket.socketpair()
    try:
        frame = (rpc.OP, 3, "kv", "put", ("k", "v"), {})
        rpc.send_frame(a, frame)
        assert rpc.recv_frame(b) == frame
        a.close()
        assert rpc.recv_frame(b) is None  # clean EOF -> None, not raise
    finally:
        b.close()


# -- frame-cap defenses ---------------------------------------------------


def test_oversized_send_raises_typed_error():
    import socket

    a, b = socket.socketpair()
    try:
        with pytest.raises(rpc.RpcFrameError) as info:
            rpc.send_frame(a, b"x" * 4096, max_bytes=1024)
        assert info.value.frame_bytes > 1024
    finally:
        a.close()
        b.close()


def test_oversized_length_prefix_rejected_before_allocation():
    # A hostile/corrupt 4-byte prefix must raise the typed error
    # instead of attempting a multi-gigabyte recv.
    import socket
    import struct

    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("<I", 0xFFFF_FFFF) + b"junk")
        with pytest.raises(rpc.RpcFrameError) as info:
            rpc.recv_frame(b)
        assert info.value.frame_bytes == 0xFFFF_FFFF
    finally:
        a.close()
        b.close()


def test_fuzzed_length_prefixes():
    """Seeded fuzz over the length prefix: every frame either decodes,
    reports EOF (truncated), or raises the typed RpcFrameError — never
    a raw struct/pickle/MemoryError."""
    import socket
    import struct

    import numpy as np

    rng = np.random.default_rng(1106)
    cap = 4096
    for _ in range(200):
        a, b = socket.socketpair()
        try:
            length = int(rng.integers(0, 2**32))
            body_len = int(rng.integers(0, 64))
            body = bytes(rng.integers(0, 256, size=body_len, dtype=np.uint8))
            a.sendall(struct.pack("<I", length) + body)
            a.close()
            try:
                frame = rpc.recv_frame(b, max_bytes=cap)
            except rpc.RpcFrameError:
                assert length > cap or body_len >= length
            else:
                # Decoded or truncated-EOF; both are in-contract.
                assert frame is None or length <= cap
        finally:
            b.close()


def test_frame_decoder_raises_on_oversized_and_corrupt_frames():
    import struct

    # Oversized announced length: refused on the prefix alone, before
    # the body is awaited or a single byte of it is buffered.
    decoder = rpc.FrameDecoder(max_bytes=1024)
    with pytest.raises(rpc.RpcFrameError) as info:
        list(decoder.feed(struct.pack("<I", 1 << 30)))
    assert info.value.frame_bytes == 1 << 30
    # Well-sized but undecodable body.
    decoder = rpc.FrameDecoder()
    with pytest.raises(rpc.RpcFrameError):
        list(decoder.feed(struct.pack("<I", 3) + b"abc"))
    # Frames ahead of the bad one are still delivered, in order.
    decoder = rpc.FrameDecoder(max_bytes=1024)
    stream = rpc._encode_checked(("ok", 1), None) + struct.pack("<I", 4096)
    frames = decoder.feed(stream)
    assert next(frames) == ("ok", 1)
    with pytest.raises(rpc.RpcFrameError):
        next(frames)


def _frame_stream(rng, count):
    """``count`` random frames and their concatenated wire bytes."""
    frames = []
    for i in range(count):
        size = int(rng.integers(0, 400))
        frames.append((
            rpc.OP, i, "log", "append",
            (bytes(rng.integers(0, 256, size=size, dtype="uint8")),),
            {"tags": [f"t{int(rng.integers(0, 9))}"]},
        ))
    wire = b"".join(rpc._encode_checked(f, None) for f in frames)
    return frames, wire


def test_frame_decoder_is_cut_invariant():
    """Property: however the byte stream is cut — at every single
    boundary, byte by byte, in random chunks, or not at all — the
    decoder yields exactly the frames that were sent, in order."""
    import numpy as np

    rng = np.random.default_rng(1106)
    frames, wire = _frame_stream(rng, 6)
    # Coalesced: one feed carries every frame.
    assert list(rpc.FrameDecoder().feed(wire)) == frames
    # One cut, at every byte boundary of the stream.
    for cut in range(len(wire) + 1):
        decoder = rpc.FrameDecoder()
        got = list(decoder.feed(wire[:cut])) + list(decoder.feed(wire[cut:]))
        assert got == frames, cut
    # Byte by byte.
    decoder = rpc.FrameDecoder()
    got = []
    for i in range(len(wire)):
        got.extend(decoder.feed(wire[i:i + 1]))
    assert got == frames
    # Seeded random chunkings of longer streams.
    for _ in range(50):
        frames, wire = _frame_stream(rng, int(rng.integers(1, 20)))
        decoder, got, pos = rpc.FrameDecoder(), [], 0
        while pos < len(wire):
            step = int(rng.integers(1, 700))
            got.extend(decoder.feed(wire[pos:pos + step]))
            pos += step
        assert got == frames


def test_undecodable_body_raises_typed_error():
    import socket
    import struct

    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack("<I", 4) + b"\x80\x05junk"[:4])
        with pytest.raises(rpc.RpcFrameError):
            rpc.recv_frame(b)
    finally:
        a.close()
        b.close()


# -- the worker's reader: FrameDecoder behind a blocking socket -------------


def _drain(reader):
    """Every frame a non-blocking socket holds right now."""
    got = []
    while True:
        try:
            got.append(reader.recv())
        except BlockingIOError:
            return got


def test_frame_reader_is_cut_invariant_over_a_socketpair():
    """The decoder's cut-invariance property, through ``FrameReader``:
    whatever lands in one ``recv`` — part of a frame, one frame, many —
    the frames come out as sent, in order."""
    import socket

    import numpy as np

    rng = np.random.default_rng(1106)
    frames, wire = _frame_stream(rng, 6)

    def through(chunks):
        a, b = socket.socketpair()
        try:
            b.setblocking(False)
            reader, got = rpc.FrameReader(b), []
            for chunk in chunks:
                a.sendall(chunk)
                got.extend(_drain(reader))
            a.close()
            return got, reader.recv()
        finally:
            b.close()

    # Coalesced (six frames in one recv) and one cut at every boundary.
    assert through([wire]) == (frames, None)
    for cut in range(1, len(wire)):
        assert through([wire[:cut], wire[cut:]]) == (frames, None), cut
    # Seeded random chunkings of longer streams.
    for _ in range(20):
        frames, wire = _frame_stream(rng, int(rng.integers(1, 20)))
        chunks, pos = [], 0
        while pos < len(wire):
            step = int(rng.integers(1, 700))
            chunks.append(wire[pos:pos + step])
            pos += step
        assert through(chunks) == (frames, None)


def test_frame_reader_serves_two_frames_from_one_recv_then_eof():
    import socket

    a, b = socket.socketpair()
    try:
        result, bye = (rpc.RESULT, 7, True, "v", 0.01), (rpc.SHUTDOWN,)
        a.sendall(rpc._encode_checked(result, None)
                  + rpc._encode_checked(bye, None))
        reads = []
        reader = rpc.FrameReader(_CountingSocket(b, reads))
        assert reader.recv() == result
        assert reader.recv() == bye
        assert reads == [65536]  # both came out of the one recv
        # EOF in the middle of a frame is a torn connection, not data.
        a.sendall(rpc._encode_checked(result, None)[:-3])
        a.close()
        assert reader.recv() is None
        assert reader.recv() is None
    finally:
        b.close()


class _CountingSocket:
    def __init__(self, sock, reads):
        self._sock, self._reads = sock, reads

    def recv(self, n):
        self._reads.append(n)
        return self._sock.recv(n)


def test_frame_reader_raises_typed_errors_after_the_frames_ahead():
    import socket
    import struct

    good = rpc._encode_checked(("ok", 1), None)
    for bad, cap in (
        (struct.pack("<I", 1 << 30), 1024),          # oversize prefix
        (struct.pack("<I", 3) + b"abc", None),       # undecodable body
    ):
        a, b = socket.socketpair()
        try:
            a.sendall(good + bad)
            reader = rpc.FrameReader(b, max_bytes=cap)
            assert reader.recv() == ("ok", 1)
            with pytest.raises(rpc.RpcFrameError):
                reader.recv()
        finally:
            a.close()
            b.close()


def test_heartbeats_interleave_with_calls_on_the_shared_socket():
    """The worker's two threads share one socket: sends (OP from the
    main thread, HEARTBEAT from the beat thread) serialize under
    ``send_lock``; the main thread is the only reader."""
    import socket
    import threading

    from repro.compute.proxy import GatewayConnection

    ours, theirs = socket.socketpair()
    seen = []

    def gateway():
        reader = rpc.FrameReader(theirs)
        while True:
            frame = reader.recv()  # a torn frame would raise here
            if frame is None:
                return
            seen.append(frame[0])
            if frame[0] == rpc.OP:
                rpc.send_frame(theirs, (rpc.RESULT, frame[1], True,
                                        frame[4][0] * 2, 0.0))

    server = threading.Thread(target=gateway)
    server.start()
    conn = GatewayConnection(ours)
    stop = threading.Event()

    def beat():
        while not stop.is_set():
            conn.send((rpc.HEARTBEAT, 0, b"x" * 4096))

    beater = threading.Thread(target=beat)
    beater.start()
    try:
        for i in range(300):
            assert conn.call("kv", "double", (i,), {}) == 2 * i
    finally:
        stop.set()
        beater.join(5.0)
        ours.close()
        server.join(5.0)
        theirs.close()
    assert seen.count(rpc.OP) == 300
    assert seen.count(rpc.HEARTBEAT) > 0
    assert set(seen) == {rpc.OP, rpc.HEARTBEAT}
