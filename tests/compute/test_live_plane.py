"""Live-plane contracts.

Most need no worker process: the gateway's op table, the worker's proxy
plane and ``LocalRuntime`` are driven in-process through a *counting
connection*: the ``GatewayConnection.call`` duck type, served straight
from the gateway's closed op table over a real sharded 2×2 storage
plane.  What a live request costs in round trips, where a route is
computed, and what a stale INVOKE frontier or step-log snapshot may and
may not do are then plain assertions, not something a script has to
re-derive from a trace.  The last section runs real worker processes
and counts what crosses the gateway's socket: the frame budget through
the real INVOKE path, and the attempt carried across a SIGKILL.
"""

import gc
import socket
import sys
import threading
import time
import types

import numpy as np
import pytest

from repro import LocalRuntime, SystemConfig
from repro.compute import WorkloadSpec, build_compute_plane, rpc
from repro.compute.dispatch import Dispatcher, _WorkerSlot
from repro.compute.frames import (
    FrameHandlers,
    FrameServer,
    _build_op_table,
    send_invoke,
)
from repro.compute.proxy import GatewayConnection, ProxyLog, ProxyPlane
from repro.errors import UnknownOpError
from repro.harness import CounterWorkload
from repro.harness.live_exp import run_live_point
from repro.observe.flightrec import FlightRecorder
from repro.recovery import Orphan
from repro.runtime.failures import BernoulliCrashes, ScriptedCrashes
from repro.runtime.ops import ComputeOp
from repro.runtime.services import ServiceBackend
from repro.storageplane.audit import storage_consistency_report
from repro.tags import instance_tag
from repro.workloads.base import Request


def _config(seed=1106):
    return SystemConfig(seed=seed).with_storage_plane(
        log_shards=2, kv_partitions=2,
    )


class CountingConnection:
    """In-process ``GatewayConnection``: counts and serves each op."""

    def __init__(self, backend):
        self.table = _build_op_table(backend)
        self.ops = []
        self.on_result = None

    def call(self, target, method, args, kwargs):
        self.ops.append(f"{target}.{method}")
        result = self.table[target, method](*args, **kwargs)
        if self.on_result is not None:
            self.on_result(target, method, result)
        return result


def _worker_stack(protocol="boki"):
    """(gateway backend, counting connection, worker runtime)."""
    config = _config()
    real = ServiceBackend(config)
    gateway_runtime = LocalRuntime(config, protocol=protocol, backend=real)
    workload = CounterWorkload(num_keys=16, compute_ms=0.0)
    workload.register(gateway_runtime)
    workload.populate(gateway_runtime)
    conn = CountingConnection(real)
    worker = LocalRuntime(
        config, protocol=protocol,
        backend=ServiceBackend(config, plane=ProxyPlane(conn)),
    )
    workload.register(worker)
    return real, conn, worker


# -- (b) round-trip budget ---------------------------------------------------


def test_round_trip_budget_is_the_protocol_ops():
    real, conn, worker = _worker_stack()
    assert conn.ops == ["plane.describe"]  # connect: topology, once
    worker.invoke("bump", "c0", start_seqnum=real.log.next_seqnum)  # warm-up
    budgets = {}
    for func, key in (("peek", "c0"), ("bump", "c1"),
                      ("peek", "c1"), ("bump", "c2")):
        conn.ops.clear()
        worker.invoke(func, key, start_seqnum=real.log.next_seqnum)
        assert not [op for op in conn.ops
                    if op.startswith("plane.") or op.endswith("next_seqnum")]
        budgets.setdefault(func, []).append(sorted(conn.ops))
    peek = sorted(["log.read_stream", "kv.get_optional"]
                  + ["log.cond_append"] * 2)
    bump = sorted(["log.read_stream", "kv.get_optional",
                   "kv.conditional_put"] + ["log.cond_append"] * 4)
    assert budgets == {"peek": [peek, peek], "bump": [bump, bump]}


def test_frontier_costs_one_round_trip_when_not_supplied():
    real, conn, worker = _worker_stack()
    worker.invoke("bump", "c0")
    conn.ops.clear()
    worker.invoke("peek", "c0")
    assert conn.ops.count("log.next_seqnum") == 1
    assert len(conn.ops) == 5


# -- (c) routing parity ------------------------------------------------------


def _routing_keys(count=1000):
    rng = np.random.default_rng(1106)
    tags = [f"tag-{int(rng.integers(0, 1 << 40)):x}" for _ in range(count)]
    keys = []
    for _ in range(count):
        key = f"k{int(rng.integers(0, 1 << 30))}"
        if rng.random() < 0.5:
            key += f"@{int(rng.integers(0, 1 << 20))}"
        keys.append(key)
    return tags, keys


def test_hash_routing_is_local_and_agrees_with_the_gateway_plane():
    real, conn, _ = _worker_stack()
    proxy = ProxyPlane(conn)
    held = dict(vars(proxy))
    conn.ops.clear()
    tags, keys = _routing_keys()
    for tag in tags:
        assert proxy.log_shard_of(tag) == real.plane.log_shard_of(tag)
    for key in keys:
        assert proxy.kv_partition_of(key) == real.plane.kv_partition_of(key)
    assert {proxy.log_shard_of(t) for t in tags} == {0, 1}
    assert {proxy.kv_partition_of(k) for k in keys} == {0, 1}
    # No RPC, and nothing retained per key (per-instance step-log tags
    # would otherwise grow a memo for the life of the worker).
    assert conn.ops == []
    assert vars(proxy) == held


# -- (d) a stale INVOKE frontier is safe -------------------------------------


def _pins_below_own_appends(frontier_skew):
    """Run crashing invocations whose ``start_seqnum`` was read
    ``frontier_skew`` records away from the true frontier; report
    whether the tracker's pin stayed <= every seqnum they appended."""
    real, conn, worker = _worker_stack()
    worker.crash_policy = BernoulliCrashes(
        0.3, np.random.default_rng(7)
    )
    safe = []

    def check(target, method, result):
        if (target, method) == ("log", "cond_append"):
            pin = worker.tracker.safe_seqnum(real.log.next_seqnum)
            safe.append(pin <= result)

    conn.on_result = check
    attempts = 0
    for i in range(12):
        frontier = real.log.next_seqnum + frontier_skew
        # Foreign traffic between dispatch and execution: the stamped
        # frontier is stale by the time the worker uses it.
        for j in range(3):
            real.log.append([f"foreign-{i}-{j}"], {"op": "noise"})
        attempts += worker.invoke(
            "bump", f"c{i}", start_seqnum=frontier
        ).attempts
    assert attempts > 12, "no crash fired: the test lost its kills"
    return all(safe)


def test_stale_invoke_frontier_never_pins_above_own_appends():
    assert _pins_below_own_appends(frontier_skew=0)


def test_frontier_check_has_power():
    # A frontier from the future is the unsafe direction; the same
    # check must catch it, or the test above proves nothing.
    assert not _pins_below_own_appends(frontier_skew=1000)


# -- gateway-side fixtures ---------------------------------------------------


class _Transport:
    """Captures what the gateway writes to a worker connection."""

    def __init__(self):
        self.decoder = rpc.FrameDecoder()
        self.frames = []

    def write(self, data):
        self.frames.extend(self.decoder.feed(data))

    def close(self):
        pass


def _gateway(**plane_kwargs):
    kwargs = dict(num_keys=16, read_ratio=0.5, compute_ms=0.0)
    return build_compute_plane(
        "localhost", CounterWorkload(**kwargs), "boki", config=_config(),
        workload_spec=WorkloadSpec("repro.harness.failover",
                                   "CounterWorkload", kwargs),
        num_workers=1, **plane_kwargs,
    )


def _clock():
    t0 = time.monotonic()
    return lambda: (time.monotonic() - t0) * 1000.0


def _idle_slot():
    """A fake worker slot: connected, ready, idle."""
    return _WorkerSlot(0, None, writer=_Transport(), ready=True)


def _idle_dispatcher():
    """A dispatcher with one idle slot — no plane, no loop, no socket."""
    config = _config()
    backend = ServiceBackend(config)
    runtime = LocalRuntime(config, protocol="boki", backend=backend)
    now = _clock()
    dispatcher = Dispatcher(
        backend, runtime, now, None, FlightRecorder("gateway", now),
        send_invoke, lambda request, latency_ms: None,
    )
    slot = dispatcher.slots[0] = _idle_slot()
    return dispatcher, slot


def _frame_server():
    """A frame server whose handlers do nothing and kill nothing."""
    now = _clock()
    return FrameServer(
        ServiceBackend(_config()), now, None,
        FlightRecorder("gateway", now),
        FrameHandlers(
            hello=lambda worker_id, transport: None,
            renew=lambda slot: None, ready=lambda slot: None,
            done=lambda slot, instance_id, ok, payload: None,
            served=lambda slot, target, method, kind, wall_ms, ok: True,
            status=dict, dump=lambda trigger, meta=None: None,
        ),
    )


# -- (f) the op surface is closed --------------------------------------------


def _serve_ops(frames, slot, sock):
    """Gateway side of a socketpair: execute every OP frame."""
    slot.writer.write = sock.sendall
    while True:
        frame = rpc.recv_frame(sock)
        if frame is None:
            return
        frames.execute_op(slot, frame)


def test_unknown_op_error_round_trip():
    frames, slot = _frame_server(), _idle_slot()
    ours, theirs = socket.socketpair()
    server = threading.Thread(target=_serve_ops, args=(frames, slot, theirs))
    server.start()
    try:
        log = ProxyLog(GatewayConnection(ours))
        for attempt in (
            lambda: log.no_such_op(1),
            lambda: log._shards,                      # private state
            lambda: log._conn.call("os", "system", ("true",), {}),
        ):
            with pytest.raises(UnknownOpError) as info:
                result = attempt()
                if callable(result):
                    result()
            assert info.value.retryable is False
        # The surface is closed, not broken: a listed op still works,
        # including the one private name the protocols do call.
        seqnum = log.append(["t"], {"op": "x"})
        assert log._record_at_offset("t", 0).seqnum == seqnum
    finally:
        ours.close()
        server.join(5.0)
        theirs.close()
    refused = [e for e in frames.flightrec.events()
               if e["kind"] == "unknown-op"]
    assert [e["op"] for e in refused] == [
        "log.no_such_op", "log._shards", "os.system",
    ]


def test_op_table_lists_only_public_names_and_declared_protocol_ops():
    table = _build_op_table(ServiceBackend(_config()))
    assert {target for target, _ in table} == {"log", "kv", "mv", "plane"}
    private = {key for key in table if key[1].startswith("_")}
    assert private == {("log", "_record_at_offset")}
    for key in (("log", "cond_append"), ("log", "next_seqnum"),
                ("kv", "conditional_put"), ("mv", "read_version"),
                ("plane", "describe"), ("plane", "log_shard_of")):
        assert key in table


# -- (h) teardown pays for the previous plane's garbage ------------------------


def test_close_collects_dropped_planes_and_restarts_the_gc_schedule():
    import gc
    import weakref

    gc.disable()  # only close() may collect while this test runs
    try:
        dropped = _gateway()
        ghost = weakref.ref(dropped.backend)
        del dropped
        # A plane is cyclic: dropping the last name frees nothing.
        assert ghost() is not None
        _gateway().close()
        assert ghost() is None
        # Every generation restarted: no full pass is due for ~120
        # young passes, longer than a burst's whole life.
        assert gc.get_count()[1:] == (0, 0)
    finally:
        gc.enable()


# -- (i) the step log rides INVOKE -------------------------------------------


def test_prefetch_is_one_shot_and_keyed_by_tag():
    real, conn, _ = _worker_stack()
    log = ProxyLog(conn)
    seq = real.log.append(["tag-a"], {"op": "x"})
    held = real.log.read_stream("tag-a")
    conn.ops.clear()
    log.prefetch = ("tag-a", held)
    # Another stream (a child instance, a checkpoint stream) asks the
    # gateway and leaves the prefetch where it is.
    assert log.read_stream("tag-b") == []
    assert conn.ops == ["log.read_stream"]
    # The owner is served locally, once; the second read (an in-worker
    # replay attempt) sees the log, not the snapshot.
    assert [r.seqnum for r in log.read_stream("tag-a")] == [seq]
    assert conn.ops == ["log.read_stream"]
    real.log.append(["tag-a"], {"op": "y"})
    assert len(log.read_stream("tag-a")) == 2
    assert conn.ops == ["log.read_stream"] * 2
    # An instance that never reads its step log (``unsafe``) leaves the
    # prefetch behind; the next INVOKE replaces it, so it is never
    # served to a later instance.
    log.prefetch = ("tag-a", held)
    log.prefetch = ("tag-c", [])
    assert log.read_stream("tag-a") != held and log.read_stream("tag-c") == []


def test_stale_step_log_snapshot_is_safe():
    """A straggler appends to the instance's stream after the gateway
    took the INVOKE snapshot: the worker loses the ``logCondAppend`` at
    each step the straggler logged and adopts the record it finds."""
    for straggler_steps in range(6):
        real, conn, worker = _worker_stack()
        straggler = LocalRuntime(_config(), protocol="boki", backend=real)
        CounterWorkload(num_keys=16, compute_ms=0.0).register(straggler)
        instance_id = worker.new_instance_id()
        tag = instance_tag(instance_id)
        snapshot = real.log.read_stream(tag)  # what INVOKE would carry
        straggler.tracker.start(instance_id, real.log.next_seqnum)
        progress = straggler.run_instance(
            "bump", "c3", instance_id, lambda: 0.0, True
        )
        for _ in range(straggler_steps):  # init, read, compute, write, end
            next(progress, None)
        worker.backend.plane.log.prefetch = (tag, snapshot)
        conn.ops.clear()
        result = worker.invoke("bump", "c3", instance_id=instance_id,
                               start_seqnum=real.log.next_seqnum)
        assert "log.read_stream" not in conn.ops
        assert (result.output, result.attempts) == (1, 1)
        assert worker.invoke("probe", "c3").output == 1
        steps = [r["step"] for r in real.log.read_stream(tag)]
        assert steps == list(range(len(steps))) and len(steps) == 4
        assert storage_consistency_report(real.plane)["anomalies"] == []


def test_in_worker_replay_reads_the_step_log_over_the_wire():
    """Crash the first attempt at every checkpoint in turn: the attempt
    that reads first is served by the prefetch, the replay asks the
    gateway — exactly once — and sees what attempt 1 logged."""
    replays = 0
    for checkpoint in range(1, 20):
        real, conn, worker = _worker_stack()
        worker.crash_policy = ScriptedCrashes({1: checkpoint})
        instance_id = worker.new_instance_id()
        worker.backend.plane.log.prefetch = (instance_tag(instance_id), [])
        conn.ops.clear()
        result = worker.invoke("bump", "c5", instance_id=instance_id,
                               start_seqnum=real.log.next_seqnum)
        assert result.output == 1
        # Checkpoint 1 is the read's own: that attempt never read.
        replayed = result.attempts == 2 and checkpoint > 1
        assert conn.ops.count("log.read_stream") == int(replayed)
        replays += replayed
        steps = [r["step"] for r in real.log.read_stream(
            instance_tag(instance_id))]
        assert steps == [0, 1, 2, 3]
    assert replays >= 8  # the sweep did cross every crash window


def test_dispatch_sends_attempt_and_step_log_and_books_the_read():
    dispatcher, slot = _idle_dispatcher()
    dispatcher.admit(Request("bump", "c0"), 0.0)
    (first,) = slot.writer.frames
    instance_id = first[1]
    assert first[4:] == (dispatcher.backend.log.next_seqnum, 1, [])
    inv = dispatcher.inflight[instance_id]
    # A log_read stage (the breakdown still sums), not an OP frame.
    assert inv.stages["log_read"] == inv.ops_wall_ms > 0.0
    assert inv.rpc_ops == 0
    # The worker dies after logging two steps; the takeover's INVOKE
    # carries the next attempt number and the orphan's records.
    tag = instance_tag(instance_id)
    for step in range(2):
        dispatcher.backend.log.append([tag], {"op": "x", "step": step})
    assert dispatcher.strand(slot, 1.0) is inv
    dispatcher.requeue(Orphan(instance_id, inv.request, inv.arrival_ms,
                              next_attempt=2, node_id=0, orphaned_at_ms=1.0))
    second = slot.writer.frames[1]
    assert second[:4] == first[:4] and second[5] == 2
    assert [r["step"] for r in second[6]] == [0, 1]
    # The replacement reports absolute attempt numbers: it was sent
    # attempt 2 and finished on attempt 3, one loss inside the worker.
    dispatcher.handle_done(slot, instance_id, True, (1, 3, {}, 0.5, 0))
    assert dispatcher.crashed_attempts == 1
    assert dispatcher.rpc_ops_per_req == 0.0


def test_zero_length_compute_does_not_sleep():
    runtime = LocalRuntime(SystemConfig(seed=3), protocol="boki")
    slept = []
    runtime.compute_sleep_fn = slept.append

    def spin(ms):
        yield ComputeOp(ms)

    runtime.register("spin", spin)
    runtime.invoke("spin", 0.0)
    assert slept == []
    runtime.invoke("spin", 2.0)
    assert slept == [2.0]


# -- (j) real worker processes: what crosses the socket ----------------------

live = pytest.mark.skipif(
    sys.platform != "linux", reason="relies on SIGKILL + AF_UNIX semantics"
)

LIVE = dict(workers=2, kills=0, requests=24, rate_per_s=400.0,
            compute_ms=0.0, seed=1106, deadline_s=90.0)


@pytest.fixture
def wire(monkeypatch):
    """Record every INVOKE the gateway writes, every OP it executes
    (by instance) and every DONE's attempt count, in a real run."""
    seen = types.SimpleNamespace(invokes=[], ops={}, attempts={})
    write = rpc.write_frame_async
    execute = FrameServer.execute_op
    done = Dispatcher.handle_done

    def spy_write(writer, frame, max_bytes=None):
        if frame[0] == rpc.INVOKE:
            seen.invokes.append(frame)
        write(writer, frame, max_bytes)

    def spy_execute(frames, slot, frame):
        seen.ops.setdefault(slot.busy_with, []).append(
            (slot.worker_id, f"{frame[2]}.{frame[3]}")
        )
        return execute(frames, slot, frame)

    def spy_done(dispatcher, slot, instance_id, ok, payload):
        if ok:
            seen.attempts[instance_id] = payload[1]
        done(dispatcher, slot, instance_id, ok, payload)

    monkeypatch.setattr(rpc, "write_frame_async", spy_write)
    monkeypatch.setattr(FrameServer, "execute_op", spy_execute)
    monkeypatch.setattr(Dispatcher, "handle_done", spy_done)
    return seen


@live
def test_first_attempt_costs_its_protocol_ops_and_no_step_log_read(wire):
    point = run_live_point("boki", **LIVE)
    assert point.result.completed == LIVE["requests"]
    assert (point.violations, point.consistency_anomalies) == (0, [])
    budgets = {"peek": set(), "bump": set()}
    for frame in wire.invokes:
        assert frame[5:7] == (1, [])  # first attempt, fresh instance
        ops = sorted(op for _, op in wire.ops[frame[1]])
        budgets[frame[2]].add(tuple(ops))
    assert budgets == {
        "peek": {("kv.get_optional",) + ("log.cond_append",) * 2},
        "bump": {("kv.conditional_put", "kv.get_optional")
                 + ("log.cond_append",) * 4},
    }
    # (Outside any invocation: a connecting worker's ``plane.describe``.)
    assert {op for _, op in wire.ops.pop(None)} == {"plane.describe"}
    total = sum(len(ops) for ops in wire.ops.values())
    assert point.result.extras["rpc_ops_per_req"] == total / LIVE["requests"]


@live
def test_in_worker_replay_reads_the_step_log_over_the_wire_once(wire):
    point = run_live_point("boki", **dict(LIVE, requests=40), crash_f=0.9)
    assert point.result.completed == 40
    assert (point.violations, point.consistency_anomalies) == (0, [])
    assert max(wire.attempts.values()) >= 2, "no crash fired"
    reads = {
        instance_id: [op for _, op in wire.ops[instance_id]].count(
            "log.read_stream")
        for instance_id in wire.attempts
    }
    # One wire read per replay attempt — less one for each attempt that
    # died before it read anything (the prefetch outlives those).
    for instance_id, attempts in wire.attempts.items():
        assert reads[instance_id] <= attempts - 1, (instance_id, attempts)
    assert sum(reads.values()) >= 1
    assert point.result.crashed_attempts == sum(
        attempts - 1 for attempts in wire.attempts.values()
    )


@live
def test_takeover_carries_the_attempt_and_the_orphans_step_log(wire):
    point = run_live_point("boki", **dict(
        LIVE, kills=1, requests=30, rate_per_s=300.0, compute_ms=2.0,
    ), lease_ms=400.0)
    result = point.result
    assert result.completed == 30 and point.kills_delivered == 1
    assert (point.violations, point.consistency_anomalies) == (0, [])
    (victim,) = [e[1] for e in result.extras["kill_events"]]
    first, second = [f for f in wire.invokes if f[1] == victim]
    assert first[5:7] == (1, [])
    assert second[5] == 2 and len(second[6]) >= 2  # init + the read step
    # The replacement replays from the records it was handed: no worker
    # in this run ever asks for a step log.
    assert not [op for ops in wire.ops.values() for _, op in ops
                if op == "log.read_stream"]
    assert wire.attempts[victim] == 2
    # A SIGKILL is a node crash, as in the DES: it counts as an orphan,
    # and no takeover leaks into the worker-internal loss count.
    assert result.orphaned_invocations == result.recovered_orphans == 1
    assert result.crashed_attempts == 0


@live
def test_service_faults_are_booked_as_faulted_not_crashed():
    # No crash policy and no kill: every lost attempt is a service fault.
    point = run_live_point("boki", workers=2, kills=0, requests=300,
                           seed=11, fault_rate=0.3, compute_ms=0.0)
    result = point.result
    assert result.completed == 300
    assert (point.violations, point.consistency_anomalies) == (0, [])
    assert result.crashed_attempts == 0 and result.faulted_attempts > 0


@live
def test_batched_sequencer_run_commits_through_the_coalescer():
    config = SystemConfig().with_storage_plane(
        sequencer="batched", sequencer_batch=4, sequencer_hold_ms=2.0)
    point = run_live_point("boki", workers=2, kills=1, requests=80, seed=7,
                           config=config)
    result = point.result
    assert result.completed == 80 and point.kills_delivered == 1
    assert (point.violations, point.consistency_anomalies) == (0, [])
    coalescer = result.extras["append_coalescer"]
    appends = result.metrics["op_wall_ms{kind=log_append}"]["count"]
    assert coalescer["flushes"] > 0
    assert coalescer["coalesced"] == appends > 80


class _NoProcess:
    """A spawned worker that never connects."""

    pid = None

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return False

    def kill(self):
        pass


@live
def test_run_freezes_the_plane_and_always_unfreezes(monkeypatch):
    assert gc.get_freeze_count() == 0
    plane = _gateway(requests=4)
    frozen = []
    plane.on_request_complete = (
        lambda request, latency: frozen.append(gc.get_freeze_count())
    )
    try:
        assert plane.run(0.0, 0.0).completed == 4
    finally:
        plane.close()
    assert len(frozen) == 4 and min(frozen) > 10_000
    assert gc.get_freeze_count() == 0

    # An aborted run (here: the deadline) unfreezes too, without close().
    plane = _gateway(deadline_s=0.05)
    monkeypatch.setattr(
        plane, "_spawn_worker",
        lambda: plane.dispatcher.slots.update(
            {9: _WorkerSlot(9, _NoProcess())}),
    )
    peak = []
    freeze = gc.freeze
    monkeypatch.setattr(
        gc, "freeze", lambda: (freeze(), peak.append(gc.get_freeze_count()))
    )
    result = plane.run(0.0, 0.0)
    assert result.extras["aborted"].startswith("deadline")
    assert peak and peak[0] > 10_000
    assert gc.get_freeze_count() == 0
