"""The live gateway's parts, each driven without the others.

``LocalhostComputePlane`` wires a ``FrameServer`` (socket and frames), a
``Dispatcher`` (queue, slots, admission), a ``Recovery`` (leases,
takeover) and the ``WorkerPool``; none of them holds the plane.  These
tests keep that shape from growing back (AST guards), drive the frame
server with stub handlers and the dispatcher with fake slots — no plane,
no pool, no lease table, and for the dispatcher no loop or socket — and
cover the append coalescer, the one piece of the gateway that is safety
code and had no test.
"""

import ast
import asyncio
import functools
import os
import pathlib
import socket
import time

import numpy as np
import pytest

import repro
from repro import LocalRuntime, SystemConfig
from repro.compute import rpc
from repro.compute.dispatch import Dispatcher, _WorkerSlot
from repro.compute.frames import FrameHandlers, FrameServer
from repro.compute.status import resolve_gateway
from repro.errors import ServiceUnavailableError, UnknownOpError
from repro.observe.flightrec import FlightRecorder
from repro.recovery import Orphan
from repro.runtime.services import ServiceBackend
from repro.workloads.base import Request
from tests.conftest import package_modules

COMPUTE_DIR = pathlib.Path(repro.__file__).parent / "compute"
#: The gateway process's modules; ``frames.py`` is its wire.
GATEWAY_SIDE = ("gateway.py", "dispatch.py", "takeover.py", "report.py",
                "frames.py")
COLLABORATORS = ("dispatch.py", "takeover.py", "report.py", "frames.py",
                 "pool.py")


def _trees(names):
    return {name: ast.parse((COMPUTE_DIR / name).read_text())
            for name in names}


# -- the shape cannot silently grow back --------------------------------------


def test_no_class_in_compute_is_over_400_lines():
    sizes = {
        f"{path.name}:{node.name}": node.end_lineno - node.lineno + 1
        for path in sorted(COMPUTE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    }
    assert {"gateway.py:LocalhostComputePlane", "dispatch.py:Dispatcher",
            "frames.py:FrameServer", "takeover.py:Recovery"} <= set(sizes)
    over = {name: size for name, size in sizes.items()
            if size > (150 if name.startswith("pool.py:") else 400)}
    assert over == {}


def test_no_collaborator_holds_the_plane():
    for name, tree in _trees(COLLABORATORS).items():
        assert "LocalhostComputePlane" not in (COMPUTE_DIR / name).read_text()
        imported = [
            module for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for module in [node.module, *(a.name for a in node.names)]
        ]
        parameters = [arg.arg for node in ast.walk(tree)
                      if isinstance(node, ast.arguments)
                      for arg in node.args + node.kwonlyargs]
        attributes = [node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"]
        assert "gateway" not in imported, name
        assert "plane" not in parameters + attributes, name


def test_only_the_frame_server_touches_a_transport_or_a_frame():
    wire = {"Transport", "Protocol", "create_unix_server", "FrameDecoder",
            "write_frame_async", "send_frame", "recv_frame", "write"}
    touched = {}
    for name, tree in _trees(GATEWAY_SIDE).items():
        imports_rpc = any(
            isinstance(node, ast.ImportFrom)
            and (node.module == "rpc"
                 or "rpc" in [alias.name for alias in node.names])
            for node in ast.walk(tree)
        )
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        touched[name] = (imports_rpc, sorted(attrs & wire))
    assert touched.pop("frames.py")[0] is True
    assert touched == {name: (False, []) for name in GATEWAY_SIDE[:-1]}


def test_compute_imports_nothing_from_the_harness():
    # ``ast.walk`` sees module-level and function-level imports alike.
    imported = [
        (path, node.lineno, name)
        for path, tree in package_modules() if path.startswith("compute/")
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in (
            [alias.name for alias in node.names]
            if isinstance(node, ast.Import)
            # ``from ..harness.x import y`` in ``repro/compute/`` is level 2.
            else [("repro." if node.level == 2 else "") + (node.module or "")]
        )
    ]
    assert imported
    assert [entry for entry in imported
            if entry[2].startswith("repro.harness")] == []


# -- fakes ----------------------------------------------------------------------


def _config(**storage):
    return SystemConfig(seed=1106).with_storage_plane(
        backend="sharded", log_shards=2, kv_partitions=2, **storage)


def _clock():
    t0 = time.monotonic()
    return lambda: (time.monotonic() - t0) * 1000.0


class _Transport:
    """A worker connection that keeps what the gateway writes to it."""

    def __init__(self):
        self.decoder = rpc.FrameDecoder()
        self.frames = []

    def write(self, data):
        self.frames.extend(self.decoder.feed(data))

    def close(self):
        pass


def _handlers(**overrides):
    handlers = dict(
        hello=lambda worker_id, transport: None,
        renew=lambda slot: None, ready=lambda slot: None,
        done=lambda slot, instance_id, ok, payload: None,
        served=lambda slot, target, method, kind, wall_ms, ok: True,
        status=dict, dump=lambda trigger, meta=None: None,
    )
    handlers.update(overrides)
    return FrameHandlers(**handlers)


def _frame_server(backend, **overrides):
    now = _clock()
    return FrameServer(backend, now, None, FlightRecorder("gateway", now),
                       _handlers(**overrides))


def _op(seq, target, method, *args):
    return (rpc.OP, seq, target, method, rpc.encode_value(args),
            rpc.encode_value({}))


# -- FrameServer: a socket, stub handlers, nothing else -------------------------


def test_frame_server_serves_a_connection_through_its_handlers(tmp_path):
    backend = ServiceBackend(_config())
    slot = _WorkerSlot(7, None)
    seen = []

    def hello(worker_id, transport):
        seen.append(("hello", worker_id))
        if worker_id != 7:
            return None
        slot.writer = transport
        return slot

    def served(slot, target, method, kind, wall_ms, ok):
        seen.append(("served", f"{target}.{method}", kind, ok))
        return method != "put"  # "chaos" kills the worker at kv.put

    frames = _frame_server(
        backend, hello=hello, served=served,
        renew=lambda slot: seen.append(("renew", slot.worker_id)),
        ready=lambda slot: seen.append(("ready", slot.worker_id)),
        done=lambda slot, instance_id, ok, payload: seen.append(
            ("done", instance_id, ok, payload)),
        status=lambda: {"protocol": "stub"},
        dump=lambda trigger, meta=None: seen.append(("dump", trigger)),
    )
    def connect_to(path):
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(10.0)
        sock.connect(path)
        return sock

    def client(path):
        connect = functools.partial(connect_to, path)
        worker = connect()
        rpc.send_frame(worker, (rpc.HELLO, 7))
        rpc.send_frame(worker, (rpc.READY, 7))
        rpc.send_frame(worker, _op(1, "log", "append", ["t"], {"op": "x"}))
        appended = rpc.recv_frame(worker)
        rpc.send_frame(worker, _op(2, "os", "system", "true"))
        refused = rpc.recv_frame(worker)
        rpc.send_frame(worker, (rpc.HEARTBEAT, 7))
        rpc.send_frame(worker, (rpc.DONE, 7, "inv-1", False, rpc.encode_error(
            ServiceUnavailableError("down", service="log", op="append"))))
        rpc.send_frame(worker, (rpc.STATUS,))
        status = rpc.recv_frame(worker)
        rpc.send_frame(worker, _op(3, "kv", "put", "k", 1))
        killed = rpc.recv_frame(worker)  # no RESULT: EOF
        worker.close()

        stranger = connect()  # an OP with no HELLO before it
        rpc.send_frame(stranger, _op(1, "log", "next_seqnum"))
        unknown = rpc.recv_frame(stranger)
        stranger.close()
        refused_hello = connect()
        rpc.send_frame(refused_hello, (rpc.HELLO, 8))
        nobody = rpc.recv_frame(refused_hello)
        refused_hello.close()
        corrupt = connect()  # a length prefix past the cap
        corrupt.sendall(b"\xff\xff\xff\xff")
        closed = rpc.recv_frame(corrupt)
        corrupt.close()
        return appended, refused, status, killed, unknown, nobody, closed

    async def scenario():
        path = await frames.start(str(tmp_path), "stub")
        published = resolve_gateway(str(tmp_path))
        try:
            return path, published, await asyncio.to_thread(client, path)
        finally:
            await frames.stop()

    path, published, replies = asyncio.run(scenario())
    # The socket's owner also publishes it, and withdraws both.
    assert published == path
    assert not os.path.exists(path) and not list(tmp_path.iterdir())
    appended, refused, status, killed, unknown, nobody, closed = replies
    assert appended[:3] == (rpc.RESULT, 1, True)
    assert backend.log.read_stream("t")[0].seqnum == rpc.decode_value(
        appended[3])
    assert refused[:3] == (rpc.RESULT, 2, False)
    assert isinstance(rpc.decode_error(refused[3]), UnknownOpError)
    assert status == (rpc.STATUS, {"protocol": "stub"})
    assert (killed, unknown, nobody, closed) == (None, None, None, None)
    assert backend.kv.get_optional("k") == 1  # applied, never acknowledged
    assert slot.last_acked_op == "os.system#2" and slot.writer is None
    done = [event for event in seen if event[0] == "done"]
    assert [event[1:3] for event in done] == [("inv-1", False)]
    assert isinstance(done[0][3], ServiceUnavailableError)
    assert [event for event in seen if event[0] in ("hello", "ready", "dump")
            ] == [("hello", 7), ("ready", 7), ("hello", 8),
                  ("dump", "rpc-frame-error")]
    assert [event[1:] for event in seen if event[0] == "served"] == [
        ("log.append", "log_append", True), ("os.system", None, False),
        ("kv.put", "db_write", True)]
    # Every frame from a known worker is proof of life: 3 OPs, HEARTBEAT,
    # DONE.
    assert seen.count(("renew", 7)) == 5
    assert frames.frame_errors == 1


# -- the append coalescer ---------------------------------------------------------


def _batched_server(**overrides):
    backend = ServiceBackend(_config(
        sequencer="batched", sequencer_batch=4, sequencer_hold_ms=20.0))
    frames = _frame_server(backend, **overrides)
    assert frames.coalescer is not None
    slots = [_WorkerSlot(i, None, writer=_Transport()) for i in range(5)]
    return frames, backend.log, slots


def _results(slots):
    return [frame for slot in slots for frame in slot.writer.frames]


def test_coalescer_parks_appends_until_the_batch_fills():
    frames, log, slots = _batched_server()
    sequencer = log.sequencer

    async def scenario():
        log.append(["seed"], {"op": "x"})  # one commit already buffered
        assert sequencer.pending_commits == 1
        for i, slot in enumerate(slots[:3]):
            method = "append" if i % 2 else "cond_append"
            args = (["t"], {"i": i}) if i % 2 else (["t"], {"i": i}, "t", i)
            assert frames.handle_op(slot, _op(i, "log", method, *args))
        # Parked: not executed, not answered, nothing flushed.
        assert _results(slots) == [] and log.read_stream("t") == []
        assert sequencer.pending_commits == 1
        # A read is never parked, and does not release the appends.
        assert frames.handle_op(slots[4], _op(9, "log", "read_stream", "t"))
        (read,) = slots[4].writer.frames
        assert read[:3] == (rpc.RESULT, 9, True)
        assert rpc.decode_value(read[3]) == [] and not _results(slots[:4])
        # The fourth append fills the batch: all four execute and every
        # RESULT is there with no commit left in the buffer.
        assert frames.handle_op(
            slots[3], _op(3, "log", "append", ["t"], {"i": 3}))
        assert sequencer.pending_commits == 0

    asyncio.run(scenario())
    results = _results(slots[:4])
    assert [(f[0], f[1], f[2]) for f in results] == [
        (rpc.RESULT, i, True) for i in range(4)]
    assert [record["i"] for record in log.read_stream("t")] == [0, 1, 2, 3]
    assert frames.coalescer.stats() == {
        "coalesced": 4, "flushes": 1, "max_batch": 4, "mean_batch": 4.0}


def test_coalescer_hold_timer_answers_a_partial_batch():
    frames, log, slots = _batched_server()

    async def scenario():
        frames.handle_op(slots[0], _op(1, "log", "append", ["t"], {"i": 0}))
        assert _results(slots) == [] and log.sequencer.pending_commits == 0
        for _ in range(200):
            await asyncio.sleep(0.005)
            if _results(slots):
                break
        return log.sequencer.pending_commits

    assert asyncio.run(scenario()) == 0
    ((kind, seq, ok, _, _),) = _results(slots)
    assert (kind, seq, ok) == (rpc.RESULT, 1, True)
    assert len(log.read_stream("t")) == 1
    assert frames.coalescer.stats()["flushes"] == 1


def test_a_kill_inside_a_batch_still_commits_the_batch():
    # The SIGKILL hook refuses the reply to the second append; the batch
    # still executes to the end and is committed before control returns.
    frames, log, slots = _batched_server(
        served=lambda slot, *op: slot.worker_id != 1)

    async def scenario():
        for i, slot in enumerate(slots[:4]):
            frames.handle_op(slot, _op(i, "log", "append", ["t"], {"i": i}))

    asyncio.run(scenario())
    assert [len(slot.writer.frames) for slot in slots[:4]] == [1, 0, 1, 1]
    assert len(log.read_stream("t")) == 4
    assert log.sequencer.pending_commits == 0


def test_shutdown_answers_parked_workers_before_stopping_them():
    from repro.compute import WorkloadSpec, build_compute_plane
    from repro.harness import CounterWorkload

    kwargs = dict(num_keys=8, compute_ms=0.0)
    plane = build_compute_plane(
        "localhost", CounterWorkload(**kwargs), "boki",
        config=_config(sequencer="batched", sequencer_batch=4,
                       sequencer_hold_ms=10_000.0),
        workload_spec=WorkloadSpec("repro.workloads.counter",
                                   "CounterWorkload", kwargs),
    )
    slots = [_WorkerSlot(i, None, writer=_Transport()) for i in range(2)]
    plane.dispatcher.slots.update(enumerate(slots))
    answered_before_stop = []

    class Pool:
        async def stop(self):
            answered_before_stop.append(len(_results(slots)))
            for slot in slots:  # what ``connection_lost`` does on EOF
                slot.writer, slot.closed = None, slot.writer

    async def scenario():
        for i, slot in enumerate(slots):
            plane.frames.handle_op(
                slot, _op(i, "log", "append", ["t"], {"i": i}))
        assert _results(slots) == []
        plane._pool = Pool()
        await plane._shutdown_workers()

    try:
        asyncio.run(scenario())
    finally:
        plane._pool = None
        plane.close()
    assert answered_before_stop == [2]
    assert plane.backend.log.sequencer.pending_commits == 0
    assert plane.frames.coalescer.stats()["flushes"] == 1


# -- Dispatcher: fake slots, no loop, no socket ------------------------------------


class _Harness:
    """A dispatcher, a model of who runs what, and the checks that must
    hold after every event."""

    def __init__(self, seed, max_inflight=None):
        self.rng = np.random.default_rng(seed)
        config = _config()
        backend = ServiceBackend(config)
        self.runtime = LocalRuntime(config, protocol="boki", backend=backend)
        now = _clock()
        self.finished = []
        self.running = {}          # worker id -> instance id, by INVOKE
        self.broken = set()        # worker ids whose next write fails
        self.minted = 0
        mint = self.runtime.new_instance_id

        def new_instance_id():
            self.minted += 1
            return mint()

        self.runtime.new_instance_id = new_instance_id
        self.dispatcher = Dispatcher(
            backend, self.runtime, now, None, FlightRecorder("gateway", now),
            self.send_invoke,
            lambda request, latency_ms: self.finished.append(latency_ms),
            max_inflight=max_inflight,
        )
        self.next_worker = 0
        for _ in range(3):
            self.spawn()

    def spawn(self):
        slot = _WorkerSlot(self.next_worker, None, writer=object())
        self.dispatcher.slots[slot.worker_id] = slot
        self.next_worker += 1

    def send_invoke(self, slot, instance_id, func, input, frontier, attempt,
                    step_log, ctx):
        # Nothing is sent to a slot that is not idle (the dispatcher
        # claims it just before the write) ...
        assert slot.writer is not None and slot.alive and slot.ready
        assert not slot.declared and slot.busy_with == instance_id
        assert slot.worker_id not in self.running
        # ... and an instance runs on at most one live slot at a time.
        assert instance_id not in self.running.values()
        assert instance_id in self.dispatcher.inflight
        if slot.worker_id in self.broken:
            raise ConnectionResetError("worker died before the write")
        self.running[slot.worker_id] = instance_id

    def live(self):
        return [slot for slot in self.dispatcher.slots.values()
                if slot.alive and not slot.declared]

    def pick(self, slots):
        return slots[int(self.rng.integers(len(slots)))] if slots else None

    def step(self):
        dispatcher = self.dispatcher
        event = self.rng.choice(
            ["admit", "admit", "ready", "done", "done", "dead", "break"])
        if event == "admit":
            before = (self.minted, dispatcher.issued, len(dispatcher.inflight))
            shed = dispatcher.rejected
            dispatcher.admit(Request("bump", f"c{self.minted}"), 0.0)
            if dispatcher.rejected > shed:  # shed: never started
                assert before == (self.minted, dispatcher.issued,
                                  len(dispatcher.inflight))
                assert len(dispatcher.inflight) >= dispatcher.max_inflight
        elif event == "ready":
            slot = self.pick([s for s in self.live() if not s.ready])
            if slot is not None:
                dispatcher.ready(slot)
        elif event == "done":
            slot = self.pick([s for s in self.live()
                              if s.worker_id in self.running])
            if slot is not None:
                instance_id = self.running.pop(slot.worker_id)
                attempt = dispatcher.inflight[instance_id].attempt
                dispatcher.handle_done(
                    slot, instance_id, True, (1, attempt, {}, 0.1, 0))
        elif event == "dead":
            # A lease runs out: on a healthy worker, or on one the
            # dispatcher already gave up on after a failed write.
            self.declare_dead(self.pick(
                [s for s in dispatcher.slots.values() if not s.declared]))
        elif event == "break":
            slot = self.pick([s for s in self.live() if s.idle])
            if slot is not None:
                self.broken.add(slot.worker_id)
        self.check()

    def declare_dead(self, slot):
        """What ``Recovery.declare_dead`` does to the dispatcher."""
        slot.declared, slot.alive, slot.writer = True, False, None
        self.running.pop(slot.worker_id, None)
        self.broken.discard(slot.worker_id)
        inv = self.dispatcher.strand(slot, 0.0)
        self.spawn()
        if inv is not None:
            self.dispatcher.requeue(Orphan(
                inv.instance_id, inv.request, inv.arrival_ms,
                next_attempt=inv.attempt + 1, node_id=slot.worker_id,
                orphaned_at_ms=0.0))

    def check(self):
        dispatcher = self.dispatcher
        busy = [slot.busy_with for slot in self.live()
                if slot.busy_with is not None]
        assert len(busy) == len(set(busy))
        assert {slot.worker_id: slot.busy_with for slot in self.live()
                if slot.busy_with is not None} == self.running
        # The queue drains whenever an idle slot exists.
        idle = [slot for slot in dispatcher.slots.values() if slot.idle]
        assert not (dispatcher.queue and idle)
        # Every admitted request is queued, running or settled — once.
        assert self.minted == dispatcher.issued
        assert dispatcher.issued == (len(dispatcher.inflight)
                                     + len(dispatcher.completed))
        assert len(self.finished) == len(dispatcher.completed)
        assert sorted(dispatcher.queue) == sorted(
            set(dispatcher.inflight) - set(self.running.values()))

    def drain(self):
        """Every worker turns up and answers: nothing is left owed."""
        dispatcher = self.dispatcher
        self.broken.clear()
        for slot in [s for s in dispatcher.slots.values()
                     if not s.alive and not s.declared]:
            self.declare_dead(slot)
        for slot in [s for s in self.live() if not s.ready]:
            dispatcher.ready(slot)
        while self.running:
            worker_id, instance_id = next(iter(self.running.items()))
            del self.running[worker_id]
            dispatcher.handle_done(
                dispatcher.slots[worker_id], instance_id, True,
                (1, dispatcher.inflight[instance_id].attempt, {}, 0.1, 0))
            self.check()
        assert not dispatcher.inflight and not dispatcher.queue
        assert len(dispatcher.completed) == dispatcher.issued == self.minted
        assert dispatcher.duplicate_completions == 0
        assert self.runtime.tracker.running_count == 0


@pytest.mark.parametrize("max_inflight", [None, 4])
@pytest.mark.parametrize("seed", range(12))
def test_dispatcher_invariants_over_seeded_interleavings(seed, max_inflight):
    harness = _Harness(seed, max_inflight)
    for _ in range(300):
        harness.step()
    if max_inflight is not None:
        assert harness.dispatcher.rejected > 0
    harness.drain()


def test_a_late_done_from_a_declared_worker_is_a_duplicate():
    harness = _Harness(seed=0)
    dispatcher = harness.dispatcher
    for slot in harness.live():
        dispatcher.ready(slot)
    dispatcher.admit(Request("bump", "c0"), 0.0)
    (worker_id, instance_id), = harness.running.items()
    straggler = dispatcher.slots[worker_id]
    harness.declare_dead(straggler)
    (taker, again), = harness.running.items()
    assert again == instance_id and taker != worker_id
    assert dispatcher.inflight[instance_id].attempt == 2
    dispatcher.handle_done(dispatcher.slots[taker], instance_id, True,
                           (1, 2, {}, 0.1, 0))
    dispatcher.handle_done(straggler, instance_id, True, (1, 1, {}, 0.1, 0))
    assert dispatcher.duplicate_completions == 1
    assert len(harness.finished) == len(dispatcher.completed) == 1


# -- lost attempts: crashes and service faults are booked apart --------------------


def test_done_splits_lost_attempts_into_crashed_and_faulted():
    harness = _Harness(seed=0)
    dispatcher = harness.dispatcher
    for slot in harness.live():
        dispatcher.ready(slot)
    for key in ("c0", "c1", "c2"):
        dispatcher.admit(Request("bump", key), 0.0)
    # (attempts, of which lost to service faults) as three workers report.
    reports = {0: (4, 2), 1: (1, 0), 2: (3, 0)}
    for worker_id, instance_id in list(harness.running.items()):
        attempts, faulted = reports[worker_id]
        dispatcher.handle_done(
            dispatcher.slots[worker_id], instance_id, True,
            (1, attempts, {"log_append": 1.5}, 0.1, faulted))
    assert dispatcher.faulted_attempts == 2
    assert dispatcher.crashed_attempts == (4 - 1 - 2) + 0 + (3 - 1)
    assert dispatcher.time_by_kind == {"log_append": 4.5}
