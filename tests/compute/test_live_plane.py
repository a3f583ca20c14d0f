"""Live-plane contracts that need no worker process.

The gateway's op table, the worker's proxy plane and ``LocalRuntime``
are driven in-process through a *counting connection*: the
``GatewayConnection.call`` duck type, served straight from the
gateway's closed op table over a real sharded 2×2 storage plane.  What
a live request costs in round trips, where a route is computed, and
what a stale INVOKE frontier may and may not do are then plain
assertions, not something a script has to re-derive from a trace.
"""

import asyncio
import socket
import threading

import numpy as np
import pytest

from repro import LocalRuntime, SystemConfig
from repro.compute import WorkloadSpec, build_compute_plane, rpc
from repro.compute.gateway import _build_op_table, _WorkerSlot
from repro.compute.proxy import GatewayConnection, ProxyLog, ProxyPlane
from repro.errors import UnknownOpError
from repro.faults import CircuitBreaker
from repro.harness import CounterWorkload
from repro.runtime.failures import BernoulliCrashes
from repro.runtime.services import ServiceBackend
from repro.workloads.base import Request


def _config(placement="hash", seed=1106):
    return SystemConfig(seed=seed).with_storage_plane(
        backend="sharded", log_shards=2, kv_partitions=2,
        placement=placement,
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


def _worker_stack(placement="hash", protocol="boki"):
    """(gateway backend, counting connection, worker runtime)."""
    config = _config(placement)
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
    real, conn, _ = _worker_stack("hash")
    proxy = ProxyPlane(conn)
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
    assert proxy._asked == {}


def test_first_seen_routing_still_asks_the_gateway_once_per_key():
    real, conn, _ = _worker_stack("first_seen")
    proxy = ProxyPlane(conn)
    conn.ops.clear()
    tags, keys = _routing_keys(50)
    for _ in range(2):  # second pass is served from the memo
        for tag in tags:
            assert proxy.log_shard_of(tag) == real.plane.log_shard_of(tag)
        for key in keys:
            assert (proxy.kv_partition_of(key)
                    == real.plane.kv_partition_of(key))
    assert conn.ops.count("plane.log_shard_of") == len(set(tags))
    assert conn.ops.count("plane.kv_partition_of") == len(set(keys))


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


def _idle_gateway(breaker=None):
    """A gateway plane with one fake, connected, idle worker slot."""
    kwargs = dict(num_keys=16, read_ratio=0.5, compute_ms=0.0)
    plane = build_compute_plane(
        "localhost", CounterWorkload(**kwargs), "boki", config=_config(),
        workload_spec=WorkloadSpec("repro.harness.failover",
                                   "CounterWorkload", kwargs),
        num_workers=1,
    )
    slot = _WorkerSlot(0, None, breaker or CircuitBreaker("worker-0"),
                       writer=_Transport(), ready=True)
    plane._slots[0] = slot
    return plane, slot


# -- (e) the poller is what re-opens a cooled-down breaker -------------------


def test_poller_dispatches_to_a_cooled_down_worker_with_no_other_event():
    breaker = CircuitBreaker("worker-0", failure_threshold=1,
                             cooldown_ops=4)
    breaker.record_failure()
    assert breaker.is_open
    plane, slot = _idle_gateway(breaker)
    plane._admit(Request("bump", "c0"), plane._now())
    # The admit pumped, found only an open breaker, and left it queued.
    assert slot.writer.frames == [] and len(plane._queue) == 1

    async def scenario():
        poller = asyncio.ensure_future(plane._dispatch_task())
        for _ in range(400):
            await asyncio.sleep(0.005)
            if slot.writer.frames:
                break
        poller.cancel()

    asyncio.run(scenario())
    (frame,) = slot.writer.frames
    assert frame[0] == rpc.INVOKE and frame[2:4] == ("bump", "c0")
    assert frame[4] == plane.backend.log.next_seqnum  # the frontier field
    assert slot.busy_with == frame[1] and not plane._queue


# -- (f) the op surface is closed --------------------------------------------


def _serve_ops(plane, slot, sock):
    """Gateway side of a socketpair: execute every OP frame."""
    slot.writer.write = sock.sendall
    while True:
        frame = rpc.recv_frame(sock)
        if frame is None:
            return
        plane._execute_op(slot, frame)


def test_unknown_op_error_round_trip():
    plane, slot = _idle_gateway()
    ours, theirs = socket.socketpair()
    server = threading.Thread(target=_serve_ops, args=(plane, slot, theirs))
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
    refused = [e for e in plane.flightrec.events()
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
        dropped, _ = _idle_gateway()
        ghost = weakref.ref(dropped.backend)
        del dropped, _
        # A plane is cyclic: dropping the last name frees nothing.
        assert ghost() is not None
        plane, _ = _idle_gateway()
        plane._slots.clear()  # the fake slot has no process to kill
        plane.close()
        assert ghost() is None
        # Every generation restarted: no full pass is due for ~120
        # young passes, longer than a burst's whole life.
        assert gc.get_count()[1:] == (0, 0)
    finally:
        gc.enable()
