"""Isolated per-layer cells: tight loops over one layer's public
functions, timed with ``process_time`` around the loop only.

Every cell is workload-independent, so the traced run of any workload
reports all of them.  Each ``_cell_*`` function returns ``{metric:
value}``; :func:`run_cells` merges them.  Which end-to-end number each
cell should move, and on which workload, is tabled in the README.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Dict, List, Tuple

from measure import SpanLog, median, per_op_seconds
from workloads import (LOGGED_PROTOCOLS, RepContext, Sizes, log_appends,
                       rep_sim_sharded)

US = 1e6

_process_time = time.process_time


class _Bench:
    """Binds the per-cell timing knobs so cells only say what to time."""

    def __init__(self, sizes: Sizes, batch_s: float, spans: SpanLog):
        self.sizes = sizes
        self.batch_s = batch_s
        self.spans = spans

    def per_op(self, name: str, batch: Callable[[int], float]) -> float:
        return per_op_seconds(
            batch, self.batch_s, self.sizes.cell_batches, self.spans, name
        )


def _loop(op: Callable[[int], Any]) -> Callable[[int], float]:
    """Batch that calls ``op(i)`` ``n`` times on shared state."""

    def batch(n: int) -> float:
        t0 = _process_time()
        for i in range(n):
            op(i)
        return _process_time() - t0

    return batch


# -- simulation ----------------------------------------------------------

def _cell_kernel(b: _Bench) -> Dict[str, float]:
    """DES-only: processes that do nothing but ``sim.timeout``."""
    from repro.simulation import Simulator

    def batch(n: int) -> float:
        sim = Simulator()
        per_process = max(1, n // 100)

        def ticker(delay: float):
            for _ in range(per_process):
                yield sim.timeout(delay)

        for i in range(100):
            sim.process(ticker(1.0 + (i % 7) * 0.5))
        t0 = _process_time()
        sim.run()
        spent = _process_time() - t0
        # Report per *requested* op so the caller's n stays meaningful.
        return spent * n / max(sim.events_processed, 1)

    return {"simulation.kernel.events_per_cpu_s":
            1.0 / b.per_op("kernel", batch)}


def _cell_resources(b: _Bench) -> Dict[str, float]:
    from repro.simulation import Resource, Simulator
    from repro.simulation.resources import SequencerBatchStation

    def grants(n: int) -> float:
        sim = Simulator()
        pool = Resource(sim, capacity=4)
        per_process = max(1, n // 32)

        def client():
            for _ in range(per_process):
                yield pool.request()
                yield sim.timeout(1.0)
                pool.release()

        for _ in range(32):  # 32 clients on 4 slots: always contended
            sim.process(client())
        t0 = _process_time()
        sim.run()
        return (_process_time() - t0) * n / max(pool.grants, 1)

    def visits(n: int) -> float:
        station = SequencerBatchStation(0.02, 0.2, 8)
        visit = station.visit
        t0 = _process_time()
        for i in range(n):
            visit(i * 0.01)
        return _process_time() - t0

    return {
        "simulation.resources.grants_per_cpu_s":
            1.0 / b.per_op("resources.grants", grants),
        "simulation.resources.seq_visits_per_cpu_s":
            1.0 / b.per_op("resources.seq_visits", visits),
    }


def _cell_latency(b: _Bench) -> Dict[str, float]:
    import numpy as np

    from repro import SystemConfig
    from repro.runtime import LatencyProvider
    from repro.sharedlog import RecordCache

    provider = LatencyProvider(SystemConfig(), RecordCache())
    samplers, _hit, _miss = provider.batched_samplers(
        np.random.default_rng(7)
    )
    draw = samplers["log_append"]
    return {"simulation.latency.draws_per_cpu_s":
            1.0 / b.per_op("latency.draws", _loop(lambda i: draw()))}


def _cell_metrics(b: _Bench) -> Dict[str, float]:
    from repro.simulation import LatencyRecorder, TimeWeightedGauge

    def records(n: int) -> float:
        record = LatencyRecorder("cell").record
        t0 = _process_time()
        for i in range(n):
            record(1.5)
        return _process_time() - t0

    def gauge_sets(n: int) -> float:
        gauge_set = TimeWeightedGauge("cell", 0.0, 0.0).set
        t0 = _process_time()
        for i in range(n):
            gauge_set(float(i & 255), float(i))
        return _process_time() - t0

    return {
        "simulation.metrics.records_per_cpu_s":
            1.0 / b.per_op("metrics.records", records),
        "simulation.metrics.gauge_sets_per_cpu_s":
            1.0 / b.per_op("metrics.gauge_sets", gauge_sets),
    }


# -- storage substrates ------------------------------------------------------

_TAGS = [(f"obj:k{i}",) for i in range(512)]
_DATA = {"op": "write", "step": 3, "version": "v"}


def _log_cells(make_log: Callable[[], Any]) -> Dict[str, Callable]:
    """append / cond_append / read_prev batches over a fresh log each
    batch (so memory stays bounded and no batch sees another's state);
    the same three loops serve ``SharedLog`` and ``ShardedLog``."""

    def append(n: int) -> float:
        log_append = make_log().append
        t0 = _process_time()
        for i in range(n):
            log_append(_TAGS[i & 511], _DATA)
        return _process_time() - t0

    def cond_append(n: int) -> float:
        cond = make_log().cond_append
        t0 = _process_time()
        for i in range(n):
            tags = _TAGS[i & 511]
            cond(tags, _DATA, tags[0], i >> 9)
        return _process_time() - t0

    def read_prev(n: int) -> float:
        log = make_log()
        for i in range(4096):
            log.append(_TAGS[i & 511], _DATA)
        read = log.read_prev
        t0 = _process_time()
        for i in range(n):
            read(_TAGS[i & 511][0], 1 + (i & 4095))
        return _process_time() - t0

    return {"append": append, "cond_append": cond_append,
            "read_prev": read_prev}


def _kv_cells(make_kv: Callable[[], Any]) -> Dict[str, Callable]:
    keys = [f"k{i}" for i in range(512)]

    def get(n: int) -> float:
        kv = make_kv()
        for key in keys:
            kv.put(key, 0, 256)
        kv_get = kv.get
        t0 = _process_time()
        for i in range(n):
            kv_get(keys[i & 511])
        return _process_time() - t0

    def cond_put(n: int) -> float:
        put = make_kv().conditional_put
        t0 = _process_time()
        for i in range(n):
            put(keys[i & 511], i, (i,), 256)
        return _process_time() - t0

    return {"get": get, "cond_put": cond_put}


def _cell_single_substrate(b: _Bench) -> Dict[str, float]:
    from repro.sharedlog import SharedLog
    from repro.store import KVStore

    log, kv = _log_cells(SharedLog), _kv_cells(KVStore)
    return {
        "sharedlog.append_us": US * b.per_op("sharedlog.append",
                                             log["append"]),
        "sharedlog.cond_append_us": US * b.per_op("sharedlog.cond_append",
                                                  log["cond_append"]),
        "sharedlog.read_prev_us": US * b.per_op("sharedlog.read_prev",
                                                log["read_prev"]),
        "store.get_us": US * b.per_op("store.get", kv["get"]),
        "store.cond_put_us": US * b.per_op("store.cond_put",
                                           kv["cond_put"]),
    }


def _cell_storageplane(b: _Bench, single_append_us: float
                       ) -> Dict[str, float]:
    from repro import SystemConfig
    from repro.storageplane import build_storage_plane

    def plane(shards: int, replication: int = 1) -> Callable[[], Any]:
        config = SystemConfig().with_storage_plane(
            backend="sharded", log_shards=shards, kv_partitions=shards,
            replication=replication,
        )
        return lambda: build_storage_plane(config)

    def log_of(make_plane: Callable[[], Any]) -> Dict[str, Callable]:
        return _log_cells(lambda: make_plane().log)

    one, four, four_r3 = plane(1), plane(4), plane(4, replication=3)
    log4 = log_of(four)
    kv4 = _kv_cells(lambda: four().kv)
    out = {
        "storageplane.log_append_us.1x1":
            US * b.per_op("storageplane.append.1x1", log_of(one)["append"]),
        "storageplane.log_append_us.4x4":
            US * b.per_op("storageplane.append.4x4", log4["append"]),
        "storageplane.log_append_us.4x4r3":
            US * b.per_op("storageplane.append.4x4r3",
                          log_of(four_r3)["append"]),
        "storageplane.log_cond_append_us.4x4":
            US * b.per_op("storageplane.cond_append.4x4",
                          log4["cond_append"]),
        "storageplane.log_read_prev_us.4x4":
            US * b.per_op("storageplane.read_prev.4x4", log4["read_prev"]),
        "storageplane.kv_cond_put_us.4x4":
            US * b.per_op("storageplane.kv_cond_put.4x4", kv4["cond_put"]),
    }
    out["storageplane.append_vs_single_ratio"] = (
        out["storageplane.log_append_us.1x1"] / single_append_us
    )
    return out


def _cell_sequencers(b: _Bench) -> Dict[str, float]:
    from repro.config import StorageSizeConfig
    from repro.storageplane.metalog import Metalog
    from repro.storageplane.sequencer import build_sequencer

    out = {}
    for name in ("monolith", "batched", "leased-ranges"):
        def batch(n: int, name: str = name) -> float:
            sequencer = build_sequencer(name, Metalog(), StorageSizeConfig())
            assign, commit = sequencer.assign, sequencer.commit
            t0 = _process_time()
            for _ in range(n):
                commit(assign())
            return _process_time() - t0

        out[f"storageplane.sequencer.assign_commit_us.{name}"] = (
            US * b.per_op(f"sequencer.{name}", batch)
        )
    return out


# -- runtime, protocols, faults ------------------------------------------------

_KEYS = [f"cell{i}" for i in range(10)]


def _read10(ctx: Any, _inp: Any) -> None:
    for key in _KEYS:
        ctx.read(key)


def _write10(ctx: Any, _inp: Any) -> None:
    for key in _KEYS:
        ctx.write(key, 1)


def _rw10(ctx: Any, _inp: Any) -> None:
    for i, key in enumerate(_KEYS):
        if i & 1:
            ctx.write(key, i)
        else:
            ctx.read(key)


def _noop(ctx: Any, _inp: Any) -> None:
    return None


def _runtime(protocol: str, config: Any = None) -> Any:
    from repro import LocalRuntime, SystemConfig

    runtime = LocalRuntime(
        config if config is not None else SystemConfig(seed=91),
        protocol=protocol,
    )
    for key in _KEYS:
        runtime.populate(key, 0)
    for name, fn in (("noop", _noop), ("read10", _read10),
                     ("write10", _write10), ("rw10", _rw10)):
        runtime.register(name, fn)
    return runtime


def _invoke_batch(make_runtime: Callable[[], Any], func: str
                  ) -> Callable[[int], float]:
    def batch(n: int) -> float:
        invoke = make_runtime().invoke
        t0 = _process_time()
        for _ in range(n):
            invoke(func)
        return _process_time() - t0

    return batch


def _appends_per_invocation(runtime: Any, func: str) -> float:
    """``log_append*`` counter delta of one clean invocation."""
    counters = runtime.backend.counters
    before = log_appends(counters.as_dict())
    runtime.invoke(func)
    return float(log_appends(counters.as_dict()) - before)


def _checkpoints(protocol: str, func: str) -> int:
    """How many crash checkpoints one clean ``func`` invocation passes
    (counted with a policy whose hook never crashes)."""
    from repro.runtime import CrashPolicy

    seen = [0]

    class Counting(CrashPolicy):
        def hook_for(self, instance_id: str, attempt: int):
            def hook(label: str) -> None:
                seen[0] += 1
            return hook

    runtime = _runtime(protocol)
    runtime.crash_policy = Counting()
    runtime.invoke(func)
    return seen[0]


def _cell_protocols(b: _Bench) -> Dict[str, float]:
    from repro.runtime import CrashOnceAtEvery

    out = {"runtime.local.invoke_us.noop": US * b.per_op(
        "runtime.noop", _invoke_batch(lambda: _runtime("boki"), "noop")
    )}
    for protocol in LOGGED_PROTOCOLS:
        def make(protocol: str = protocol) -> Any:
            return _runtime(protocol)

        def per_op(func: str) -> float:
            return b.per_op(f"protocols.{protocol}.{func}",
                            _invoke_batch(make, func))

        noop, rw = per_op("noop"), per_op("rw10")
        out[f"protocols.{protocol}.read_us"] = (
            US * (per_op("read10") - noop) / 10.0
        )
        out[f"protocols.{protocol}.write_us"] = (
            US * (per_op("write10") - noop) / 10.0
        )
        # Replay: the first attempt dies at its last checkpoint, so the
        # second attempt replays all ten ops; the extra over a clean
        # run is the replay cost.
        last = _checkpoints(protocol, "rw10")

        def make_crashy(protocol: str = protocol, last: int = last) -> Any:
            runtime = _runtime(protocol)
            runtime.crash_policy = CrashOnceAtEvery(last)
            return runtime

        crashy = b.per_op(f"protocols.{protocol}.replay",
                          _invoke_batch(make_crashy, "rw10"))
        out[f"protocols.{protocol}.replay_us"] = US * (crashy - rw) / 10.0
        runtime = make()
        base = _appends_per_invocation(runtime, "noop")
        out[f"protocols.{protocol}.log_appends_per_read"] = (
            _appends_per_invocation(runtime, "read10") - base
        ) / 10.0
        out[f"protocols.{protocol}.log_appends_per_write"] = (
            _appends_per_invocation(runtime, "write10") - base
        ) / 10.0
    return out


def _cell_faults(b: _Bench) -> Dict[str, float]:
    import numpy as np

    from repro import SystemConfig
    from repro.faults import FaultInjector

    faulty = SystemConfig(seed=91).with_fault_rate(0.05)
    clean_rw = b.per_op("services.clean_rw10",
                        _invoke_batch(lambda: _runtime("boki"), "rw10"))
    faulted_rw = b.per_op(
        "services.faulted_rw10",
        _invoke_batch(lambda: _runtime("boki", faulty), "rw10"),
    )
    injector = FaultInjector(faulty.faults, np.random.default_rng(7))
    draw = injector.draw
    return {
        "runtime.services.faulted_op_us":
            US * (faulted_rw - clean_rw) / 10.0,
        "faults.injector.decide_us": US * b.per_op(
            "faults.decide", _loop(lambda i: draw("log", "log_append"))
        ),
    }


def _cell_gc(b: _Bench) -> Dict[str, float]:
    """One ``GarbageCollector`` pass over a log of finished
    halfmoon-read writers (versions and write-log records to reclaim)."""
    records = b.sizes.gc_records
    samples = []
    for index in range(min(3, b.sizes.cell_batches)):
        runtime = _runtime("halfmoon-read")
        while runtime.backend.log.live_record_count < records:
            runtime.invoke("write10")
        with b.spans.span("cell:runtime.gc", batch=index,
                          records=runtime.backend.log.live_record_count):
            t0 = _process_time()
            runtime.run_gc()
            samples.append(_process_time() - t0)
    return {"runtime.gc.pass_ms": 1000.0 * median(samples)}


# -- harness -------------------------------------------------------------------

def _cell_lifecycle(b: _Bench) -> Dict[str, float]:
    """``SimPlatform.run`` of a zero-op SSF: arrival, worker grant,
    protocol init, completion bookkeeping — and nothing else."""
    from repro import SystemConfig
    from repro.harness import SimPlatform
    from repro.workloads.base import Request, Workload

    class NoopWorkload(Workload):
        name = "noop"

        def register(self, runtime: Any) -> None:
            runtime.register("noop", _noop)

        def populate(self, runtime: Any) -> None:
            pass

        def next_request(self, rng: Any) -> Request:
            return Request("noop", None)

        def read_write_profile(self) -> Tuple[float, float]:
            return (0.0, 0.0)

    def batch(n: int) -> float:
        platform = SimPlatform(NoopWorkload(), "boki", SystemConfig(seed=91))
        duration_ms = max(50.0, n)  # 1000 req/s: one request per ms
        t0 = _process_time()
        result = platform.run(1000.0, duration_ms)
        spent = _process_time() - t0
        return spent * n / max(len(result.latency_series.points), 1)

    return {"harness.platform.lifecycle_us":
            US * b.per_op("harness.lifecycle", batch)}


def _cell_parallel(b: _Bench) -> Dict[str, float]:
    """``run_cells`` over four shard-sweep cells, serial vs a pool."""
    from repro import SystemConfig
    from repro.harness import SweepCell, run_cells, run_shard_point

    cells = [
        SweepCell(
            key=("e2e", shards, rate), fn=run_shard_point,
            kwargs=dict(
                shards=shards, rate_per_s=rate,
                config=SystemConfig(seed=91),
                duration_ms=b.sizes.parallel_cell_ms,
                warmup_ms=b.sizes.parallel_cell_ms / 5.0, num_keys=500,
            ),
        )
        for shards in (1, 4) for rate in (150.0, 600.0)
    ]
    jobs = min(2, os.cpu_count() or 1)
    with b.spans.span("cell:harness.parallel", jobs=1):
        t0 = time.perf_counter()
        serial = run_cells(cells, jobs=1)
        serial_s = time.perf_counter() - t0
    with b.spans.span("cell:harness.parallel", jobs=jobs):
        t0 = time.perf_counter()
        pooled = run_cells(cells, jobs=jobs)
        pooled_s = time.perf_counter() - t0
    if [r.median_ms for r in serial] != [r.median_ms for r in pooled]:
        raise RuntimeError("run_cells: pooled results differ from serial")
    return {
        "harness.parallel.jobs2_speedup": serial_s / pooled_s,
        "harness.parallel.dispatch_overhead_s": pooled_s - serial_s / jobs,
    }


def _cell_tracer(b: _Bench, seed: int) -> Dict[str, float]:
    """What ``tracer=Tracer()`` costs the sharded sim cell."""
    import dataclasses

    from repro.observe import Tracer

    sizes = dataclasses.replace(
        b.sizes, sharded_ms=b.sizes.tracer_cell_ms,
        sharded_warmup_ms=b.sizes.tracer_cell_ms / 5.0,
    )
    cpu: Dict[bool, List[float]] = {False: [], True: []}
    for index in range(2):
        for traced in (False, True):
            ctx = RepContext("observe.tracing", index, b.spans,
                             tracer=Tracer() if traced else None)
            cpu[traced].append(rep_sim_sharded(sizes, seed, ctx).cpu_s)
    return {"observe.tracing.cpu_overhead_ratio":
            median(cpu[True]) / median(cpu[False])}


# -- live codec ------------------------------------------------------------------

class _Pipe:
    """A socket double: ``send_frame``/``recv_frame`` only need
    ``sendall`` and ``recv``, so the codec is timed without a kernel
    round trip (and follows whatever encoding ``rpc`` switches to)."""

    def __init__(self) -> None:
        self.data = b""
        self.pos = 0

    def sendall(self, blob: bytes) -> None:
        self.data = blob

    def recv(self, n: int) -> bytes:
        chunk = self.data[self.pos:self.pos + n]
        self.pos += len(chunk)
        return chunk


def _cell_rpc(b: _Bench) -> Dict[str, float]:
    import socket

    from repro.compute import rpc
    from repro.sharedlog import LogRecord

    record = LogRecord(7, ("obj:k1", "inst:abc"), _DATA, payload_bytes=256)
    frame = (rpc.OP, 1, "log", "append",
             rpc.encode_value((record,)), rpc.encode_value({}))
    pipe = _Pipe()
    send, recv = rpc.send_frame, rpc.recv_frame

    def decode(i: int) -> None:
        pipe.pos = 0
        recv(pipe)

    encode_s = b.per_op("rpc.encode", _loop(lambda i: send(pipe, frame)))
    frame_bytes = len(pipe.data)
    decode_s = b.per_op("rpc.decode", _loop(decode))

    left, right = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        def echo(i: int) -> None:
            send(left, frame)
            send(right, recv(right))
            recv(left)

        roundtrip_s = b.per_op("rpc.socketpair", _loop(echo))
    finally:
        left.close()
        right.close()
    return {
        "compute.rpc.encode_us": US * encode_s,
        "compute.rpc.decode_us": US * decode_s,
        "compute.rpc.frame_bytes": float(frame_bytes),
        "compute.rpc.socketpair_roundtrip_us": US * roundtrip_s,
    }


def run_cells(sizes: Sizes, seed: int, batch_s: float, spans: SpanLog
              ) -> Dict[str, float]:
    """Every isolated cell, in layer order."""
    b = _Bench(sizes, batch_s, spans)
    out: Dict[str, float] = {}
    for cell in (_cell_kernel, _cell_resources, _cell_latency,
                 _cell_metrics, _cell_single_substrate):
        out.update(cell(b))
    out.update(_cell_storageplane(b, out["sharedlog.append_us"]))
    for cell in (_cell_sequencers, _cell_protocols, _cell_faults, _cell_gc,
                 _cell_lifecycle, _cell_parallel, _cell_rpc):
        out.update(cell(b))
    out.update(_cell_tracer(b, seed))
    return out
