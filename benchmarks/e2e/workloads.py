"""The four benchmark workloads.

Each ``rep_*`` function runs one repetition of one workload through the
repository's public entry points and times it from outside: set-up
(construction, populate, and for the live plane spawn + HELLO/READY)
under ``ctx.setup``, the measured body under ``ctx.body``, and the
correctness checks under ``ctx.check``.  A rep returns a :class:`Rep`
with counts, timings, the modelled-latency statistics and the
per-layer counts the traced run reports.

Why these four (one sentence each; the README has the full table):

* ``sim_sharded`` — every simulated layer does work: DES kernel,
  contention stations, the service charge path, the sharded storage
  plane, one protocol step per op, the platform lifecycle.
* ``sim_apps`` — same DES and lifecycle, different everything below:
  the single-node ``SharedLog`` + ``KVStore`` substrate, no stations,
  both Halfmoon protocols, ``ctx.invoke`` workflows.  A storage-plane
  or station optimisation must show on ``sim_sharded`` and not here.
* ``direct_chaos`` — no DES and no platform at all; the only workload
  on the resilient half of the service call (injector, retry/backoff,
  breaker, crash replay).  Kernel work must read "no change" here.
* ``live_burst`` — the only real-process workload (codec, AF_UNIX
  socket, gateway event loop, storage plane, worker runtime) with zero
  simulated latency, so it is pure host cost; sim-only changes must
  read "no change".
"""

from __future__ import annotations

import contextlib
import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from measure import (SpanLog, Stopwatch, box_speed, calibration_loop,
                     children_cpu_s)

#: Paper Fig. 11 apps, each under the protocol and load the paper pairs
#: it with (failure-free): (app, protocol, offered req/s).
APP_CELLS = (
    ("travel-reservation", "halfmoon-read", 500.0),
    ("movie-review", "halfmoon-write", 250.0),
    ("retwis", "boki", 500.0),
)

LOGGED_PROTOCOLS = ("boki", "halfmoon-read", "halfmoon-write")

#: Per-layer metrics read from a workload's own results.  Every traced
#: run reports all of them; a workload that never enters a layer (no
#: DES events in direct mode, no gateway in a simulation) reads 0 there.
PER_WORKLOAD_LAYER = (
    "model.events_per_req",
    "simulation.events_per_cpu_s",
    "model.queue_wait_ms_mean",
    "model.log_append_ms_mean",
    "model.log_read_ms_mean",
    "model.store_ms_mean",
    "model.sequencer_occupancy",
    "model.log_wait_ms_per_req",
    "model.store_wait_ms_per_req",
    "model.record_cache_hit_ratio",
    "model.retries_per_req",
    "model.crash_replays_per_req",
    "compute.gateway.cpu_ms_per_req",
    "compute.worker.cpu_ms_per_req",
    "compute.worker.spawn_s",
    "compute.gateway.paced_p50_ms",
    "compute.gateway.paced_p95_ms",
    "compute.gateway.rpc_p50_ms",
    "compute.gateway.rpc_p99_ms",
    "compute.gateway.generator_lag_frac",
)


@dataclass(frozen=True)
class Sizes:
    """How much one rep does.  ``FULL`` is the benchmark; ``TINY`` is
    the self-check's (seconds per suite, same code paths)."""

    # sim_sharded: open loop at 600 req/s on 4 shards x 4 partitions.
    sharded_ms: float = 3_000.0
    sharded_warmup_ms: float = 500.0
    sharded_keys: int = 1_000
    # sim_apps: simulated ms per app cell.
    apps_ms: float = 3_000.0
    apps_warmup_ms: float = 500.0
    # direct_chaos: requests per protocol, and the unsafe control.
    chaos_requests: int = 4_000
    chaos_keys: int = 2_000
    chaos_control_requests: int = 1_000
    chaos_protocols: Tuple[str, ...] = LOGGED_PROTOCOLS
    # live_burst: backlog admitted at t=0, drained by the workers.
    live_requests: int = 1_000
    # traced run: plain reps (the untraced baseline) + profiled reps.
    plain_reps: int = 2
    profiled_reps: int = 1
    # live paced phase (traced, live_burst only).
    paced_rate_per_s: float = 200.0
    paced_requests: int = 1_000
    paced_warmup_ms: float = 1_000.0
    # isolated cells.
    cell_batches: int = 3
    gc_records: int = 10_000
    parallel_cell_ms: float = 400.0
    tracer_cell_ms: float = 1_000.0
    import_samples: int = 5
    #: Timed reps per run, at least (the clock may allow more).
    min_reps: int = 7


FULL = Sizes()
TINY = Sizes(
    sharded_ms=400.0, sharded_warmup_ms=100.0, sharded_keys=200,
    apps_ms=300.0, apps_warmup_ms=50.0,
    chaos_requests=150, chaos_keys=60, chaos_control_requests=300,
    live_requests=60,
    plain_reps=1, profiled_reps=1,
    paced_requests=40, paced_warmup_ms=50.0,
    cell_batches=2, gc_records=400,
    parallel_cell_ms=150.0, tracer_cell_ms=200.0,
    import_samples=1, min_reps=2,
)


def live_workers() -> int:
    return min(2, multiprocessing.cpu_count())


@dataclass
class Rep:
    """What one repetition measured."""

    attempted: int
    failed: int
    completed: int
    setup_s: float
    cpu_s: float
    wall_s: float
    #: Completions per wall second (the live plane overrides the
    #: whole-body rate with its steady-state window).
    req_per_s: float
    p50_ms: float
    p99_ms: float
    log_appends: int
    #: Statistics that must repeat bit for bit at one seed.
    exact: Tuple[Any, ...]
    #: Per-layer counts and splits for the traced run.
    layer: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: The requests ran on real worker processes: latencies are host
    #: wall-clock (not simulated) and the workers' memory counts.
    real_processes: bool = False
    #: How fast the box ran during the timed body, relative to the
    #: reference box, on each clock (1.0 when the rep was not
    #: calibrated), and the calibration samples behind them.
    cpu_speed: float = 1.0
    wall_speed: float = 1.0
    calib: List[Tuple[float, float]] = field(default_factory=list)


#: Calibration samples on each side of a timed body section (~15 ms
#: each; a section is 0.5-1.5 s).
CALIB_PER_EDGE = 2


class RepContext:
    """Timers and spans for one rep, handed to the ``rep_*`` function.

    With ``calibrate`` every timed body section is bracketed by
    calibration samples, and its time is also accumulated *at reference
    speed* (``measure.box_speed`` of the bracketing samples): the box
    changes speed every few seconds, so a section is rescaled by what
    the box did right around it, not by a run-wide average."""

    def __init__(self, workload: str, rep: int, spans: SpanLog,
                 profiler: Any = None, tracer: Any = None,
                 calibrate: bool = False):
        self.workload = workload
        self.rep = rep
        self.spans = spans
        self.tracer = tracer
        self.calibrate = calibrate
        self.calib: List[Tuple[float, float]] = []
        self._setup = Stopwatch()
        self._body = Stopwatch(profiler)
        self._cpu_ref_s = 0.0
        self._wall_ref_s = 0.0

    @contextlib.contextmanager
    def _section(self, name: str, watch: Optional[Stopwatch]
                 ) -> Iterator[None]:
        with self.spans.span(name, workload=self.workload, rep=self.rep):
            if watch is None:
                yield
            else:
                with watch:
                    yield

    def setup(self, name: str):
        return self._section(name, self._setup)

    @contextlib.contextmanager
    def body(self, name: str) -> Iterator[None]:
        if not self.calibrate:
            with self._section(name, self._body):
                yield
            return
        bracket = [calibration_loop() for _ in range(CALIB_PER_EDGE)]
        cpu0, wall0 = self._body.cpu_s, self._body.wall_s
        with self._section(name, self._body):
            yield
        bracket += [calibration_loop() for _ in range(CALIB_PER_EDGE)]
        self.calib += bracket
        self._cpu_ref_s += (self._body.cpu_s - cpu0) * box_speed(
            [cpu for cpu, _ in bracket])
        self._wall_ref_s += (self._body.wall_s - wall0) * box_speed(
            [wall for _, wall in bracket])

    def check(self, name: str):
        return self._section(name, None)

    @property
    def setup_s(self) -> float:
        return self._setup.wall_s

    @property
    def cpu_s(self) -> float:
        return self._body.cpu_s

    @property
    def wall_s(self) -> float:
        return self._body.wall_s

    @property
    def cpu_speed(self) -> float:
        """Box speed during the body on the CPU clock (1.0 when the rep
        was not calibrated)."""
        if not (self.calibrate and self._body.cpu_s > 0.0):
            return 1.0
        return self._cpu_ref_s / self._body.cpu_s

    @property
    def wall_speed(self) -> float:
        if not (self.calibrate and self._body.wall_s > 0.0):
            return 1.0
        return self._wall_ref_s / self._body.wall_s


def count_requests(workload: Any) -> List[int]:
    """Count requests attempted from outside the platform: wrap the
    workload's public ``next_request``."""
    counter = [0]
    inner = workload.next_request

    def next_request(rng: Any) -> Any:
        counter[0] += 1
        return inner(rng)

    workload.next_request = next_request
    return counter


def log_appends(counters: Dict[str, int]) -> int:
    """The paper's logging-overhead axis: every ``log_append*`` kind."""
    return sum(n for kind, n in counters.items()
               if kind.startswith("log_append"))


# -- simulated workloads ---------------------------------------------------

def _sim_layer(results: List[Any], attempted: int, cpu_s: float,
               log_wait_ms: float, store_wait_ms: float) -> Dict[str, float]:
    """Per-layer counts of one rep's ``RunResult``s (exact at a seed)."""
    events = sum(r.extras["events_processed"] for r in results)
    measured = sum(r.breakdown.count for r in results)

    def stage_mean(stage: str) -> float:
        return sum(r.breakdown.stage_mean(stage) * r.breakdown.count
                   for r in results) / measured

    cache = [r.metrics["record_cache"] for r in results]
    lookups = sum(c["hits"] + c["misses"] for c in cache)
    sequencers = [r.extras["sequencer"]["occupancy"] for r in results
                  if "sequencer" in r.extras]
    return {
        "model.events_per_req": events / attempted,
        "simulation.events_per_cpu_s": events / cpu_s,
        "model.queue_wait_ms_mean": stage_mean("queueing"),
        "model.log_append_ms_mean": stage_mean("log_append"),
        "model.log_read_ms_mean": stage_mean("log_read"),
        "model.store_ms_mean": stage_mean("store"),
        "model.sequencer_occupancy": max(sequencers, default=0.0),
        "model.log_wait_ms_per_req": log_wait_ms / attempted,
        "model.store_wait_ms_per_req": store_wait_ms / attempted,
        "model.record_cache_hit_ratio": (
            sum(c["hits"] for c in cache) / lookups if lookups else 0.0
        ),
        "model.retries_per_req": sum(
            r.counters.get("service_retries", 0) for r in results
        ) / attempted,
        "model.crash_replays_per_req": sum(
            r.crashed_attempts for r in results
        ) / attempted,
    }


def _sim_rep(ctx: RepContext, cells: List[Tuple[Callable[[], Any],
                                                 float, float, float]]
             ) -> Rep:
    """Run ``(make_platform, rate, duration_ms, warmup_ms)`` cells."""
    results, attempted, completions = [], 0, 0
    log_wait = store_wait = 0.0
    for make_platform, rate, duration_ms, warmup_ms in cells:
        with ctx.setup("construct"):
            platform = make_platform()
            counter = count_requests(platform.workload)
        with ctx.body("run"):
            result = platform.run(rate, duration_ms, warmup_ms=warmup_ms)
        results.append(result)
        attempted += counter[0]
        # ``completed`` excludes warm-up arrivals; the series has all.
        completions += len(result.latency_series.points)
        log_wait += platform.log_wait_ms_total
        store_wait += platform.store_wait_ms_total
    with ctx.check("audit"):
        failed = attempted - completions
        notes = ([f"{failed} of {attempted} requests never completed"]
                 if failed else [])
    return Rep(
        attempted=attempted,
        failed=failed,
        completed=completions,
        setup_s=ctx.setup_s,
        cpu_s=ctx.cpu_s,
        wall_s=ctx.wall_s,
        cpu_speed=ctx.cpu_speed,
        wall_speed=ctx.wall_speed,
        calib=ctx.calib,
        req_per_s=completions / ctx.wall_s,
        p50_ms=sum(r.median_ms for r in results) / len(results),
        p99_ms=sum(r.p99_ms for r in results) / len(results),
        log_appends=sum(log_appends(r.counters) for r in results),
        exact=tuple(
            (r.completed, r.median_ms, r.p99_ms, r.mean_ms,
             r.extras["events_processed"], tuple(sorted(r.counters.items())))
            for r in results
        ),
        layer=_sim_layer(results, attempted, ctx.cpu_s, log_wait,
                         store_wait),
        notes=notes,
    )


def rep_sim_sharded(sizes: Sizes, seed: int, ctx: RepContext) -> Rep:
    """``MixedRatioWorkload(0.5)`` under boki on the 4x4 sharded plane
    with shard, partition and sequencer stations on: open loop, 600
    req/s (the ROADMAP's ``shard`` cell, long enough to repeat)."""
    from repro import SystemConfig
    from repro.harness import SimPlatform, shard_sweep_config
    from repro.workloads.synthetic import MixedRatioWorkload

    def make_platform() -> Any:
        workload = MixedRatioWorkload(
            0.5, num_keys=sizes.sharded_keys, ops_per_request=10
        )
        return SimPlatform(
            workload, "boki",
            shard_sweep_config(4, SystemConfig(seed=seed)),
            tracer=ctx.tracer,
        )

    return _sim_rep(ctx, [(make_platform, 600.0, sizes.sharded_ms,
                           sizes.sharded_warmup_ms)])


def rep_sim_apps(sizes: Sizes, seed: int, ctx: RepContext) -> Rep:
    """The paper's Fig. 11 apps, failure-free, on the default
    (``auto`` -> ``single``) substrate.  Composes what
    ``run_app_point`` composes, split so construction is timed as
    set-up rather than inside the body."""
    from repro import SystemConfig
    from repro.harness import APP_FACTORIES, SimPlatform

    def maker(app: str, protocol: str) -> Callable[[], Any]:
        return lambda: SimPlatform(
            APP_FACTORIES[app](), protocol, SystemConfig(seed=seed)
        )

    return _sim_rep(ctx, [
        (maker(app, protocol), rate, sizes.apps_ms, sizes.apps_warmup_ms)
        for app, protocol, rate in APP_CELLS
    ])


# -- direct mode -------------------------------------------------------------

def rep_direct_chaos(sizes: Sizes, seed: int, ctx: RepContext) -> Rep:
    """``run_chaos_point`` per logged protocol at 5% infrastructure
    faults and 15% instance crashes, audited against ground truth,
    plus an ``unsafe`` control that must violate (the audit has power).
    ``run_chaos_point`` constructs, drives and audits in one call, so
    all of it is body time and per-rep set-up is ~0."""
    from repro import SystemConfig
    from repro.harness import run_chaos_point

    config = SystemConfig(seed=seed)
    points = []
    for protocol in sizes.chaos_protocols:
        with ctx.body("run_chaos_point"):
            points.append(run_chaos_point(
                protocol, 0.05, config=config, crash_f=0.15,
                requests=sizes.chaos_requests, num_keys=sizes.chaos_keys,
            ))
    with ctx.check("unsafe_control"):
        control = run_chaos_point(
            "unsafe", 0.05, config=config, crash_f=0.15,
            requests=sizes.chaos_control_requests,
            num_keys=sizes.chaos_keys,
        )
    attempted = sum(p.requests for p in points)
    notes = []
    with ctx.check("audit"):
        for point in points:
            if point.violations:
                notes.append(
                    f"{point.protocol}: {point.violations} exactly-once "
                    "violations"
                )
        if control.violations < 1:
            notes.append("unsafe control did not violate: the audit "
                         "has no power at this size")
    crashes = sum(p.crashes_fired for p in points)
    return Rep(
        attempted=attempted,
        # A failed check fails every request of the rep.
        failed=attempted if notes else 0,
        completed=attempted,
        setup_s=ctx.setup_s,
        cpu_s=ctx.cpu_s,
        wall_s=ctx.wall_s,
        cpu_speed=ctx.cpu_speed,
        wall_speed=ctx.wall_speed,
        calib=ctx.calib,
        req_per_s=attempted / ctx.wall_s,
        p50_ms=sum(p.latency.median() for p in points) / len(points),
        p99_ms=sum(p.latency.p99() for p in points) / len(points),
        log_appends=sum(log_appends(p.counters) for p in points),
        exact=tuple(
            (p.violations, p.latency.median(), p.latency.p99(),
             p.retries, p.crashes_fired, tuple(sorted(p.counters.items())))
            for p in points
        ) + (control.violations,),
        layer={
            "model.retries_per_req": sum(p.retries for p in points)
            / attempted,
            "model.crash_replays_per_req": crashes / attempted,
            "model.log_append_ms_mean": _chaos_stage(points, "log_append"),
            "model.log_read_ms_mean": _chaos_stage(points, "log_read"),
            "model.store_ms_mean": _chaos_stage(points, "store"),
        },
        notes=notes,
    )


def _chaos_stage(points: List[Any], stage: str) -> float:
    total = sum(p.breakdown.count for p in points)
    return sum(p.breakdown.stage_mean(stage) * p.breakdown.count
               for p in points) / total


# -- live plane --------------------------------------------------------------

def _build_live_plane(sizes: Sizes, seed: int, requests: int,
                      telemetry: bool, tracer: Any = None) -> Tuple[Any, Any]:
    from repro import SystemConfig
    from repro.compute import WorkloadSpec, build_compute_plane
    from repro.harness import CounterWorkload

    # CounterWorkload burns one key per bump and raises once the pool
    # is exhausted, so size it like ``run_live_point`` does.
    kwargs = dict(num_keys=requests + 64, read_ratio=0.5, compute_ms=0.0)
    workload = CounterWorkload(**kwargs)
    spec = WorkloadSpec(
        module="repro.harness.failover", qualname="CounterWorkload",
        kwargs=kwargs,
    )
    config = SystemConfig(seed=seed).with_storage_plane(
        backend="sharded", log_shards=2, kv_partitions=2
    )
    plane = build_compute_plane(
        "localhost", workload, "boki", config=config, tracer=tracer,
        workload_spec=spec, num_workers=live_workers(), kills=0,
        requests=requests, telemetry=telemetry,
    )
    return plane, workload


def _live_audit(plane: Any, workload: Any, result: Any, requests: int,
                expected: Dict[str, int]) -> List[str]:
    """Everything a live rep must satisfy; any entry fails the rep."""
    from repro.storageplane.audit import storage_consistency_report

    notes = []
    if result.extras.get("aborted"):
        notes.append(f"run aborted: {result.extras['aborted']}")
    if result.extras.get("failed_invocations"):
        notes.append(
            f"{len(result.extras['failed_invocations'])} invocations failed"
        )
    if result.completed != requests:
        notes.append(f"completed {result.completed} of {requests}")
    violations = sum(
        1 for key in workload.keys
        if plane.runtime.invoke("probe", key).output != expected[key]
    )
    if violations:
        notes.append(f"{violations} exactly-once violations")
    anomalies = storage_consistency_report(plane.backend.plane)["anomalies"]
    if anomalies:
        notes.append(f"{len(anomalies)} storage-consistency anomalies")
    return notes


def _reap_children() -> List[str]:
    """No worker may outlive its burst; kill and report any that did."""
    stray = multiprocessing.active_children()
    for process in stray:
        process.kill()
        process.join(5.0)
    return [f"stray child process {p.name}" for p in stray]


def _run_live(sizes: Sizes, seed: int, ctx: RepContext, requests: int,
              rate_per_s: float, warmup_ms: float, telemetry: bool
              ) -> Tuple[Any, List[str], int, float]:
    """One live run: build, drive, audit, close.  Returns the result,
    failure notes, log records appended, and reaped worker CPU."""
    with ctx.setup("construct"):
        plane, workload = _build_live_plane(sizes, seed, requests,
                                            telemetry)
    expected = {key: 0 for key in workload.keys}

    def on_complete(request: Any, latency_ms: float) -> None:
        if request.func_name == "bump":
            expected[request.input] += 1

    plane.on_request_complete = on_complete
    child_cpu0 = children_cpu_s()
    try:
        log = plane.backend.log
        seq0 = log.next_seqnum
        with ctx.body("run"):
            result = plane.run(
                rate_per_s,
                requests * 1000.0 / rate_per_s if rate_per_s else 0.0,
                warmup_ms=warmup_ms,
            )
        appended = log.next_seqnum - seq0
        with ctx.check("audit"):
            notes = _live_audit(plane, workload, result, requests, expected)
    finally:
        with ctx.check("close"):
            plane.close()
            strays = _reap_children()
    return result, notes + strays, appended, children_cpu_s() - child_cpu0


def rep_live_burst(sizes: Sizes, seed: int, ctx: RepContext) -> Rep:
    """A backlog of requests admitted at t=0 and drained by real worker
    processes: a closed loop with one in-flight invocation per worker.
    boki, sharded 2x2, no kills, telemetry off, ``compute_ms=0``."""
    import numpy as np

    from repro.observe.breakdown import STAGES

    requests = sizes.live_requests
    result, notes, appended, worker_cpu = _run_live(
        sizes, seed, ctx, requests, 0.0, 0.0, telemetry=False
    )
    # The body stopwatch reads this process's CPU: the gateway's.
    gateway_cpu = ctx.cpu_s
    completed = result.completed
    times = sorted(t for t, _ in result.latency_series.points)
    first_completion_s = times[0] / 1000.0 if times else 0.0
    # Steady-state drain rate: completions between the 10th and 90th
    # percentile completion (spawn and the ragged tail excluded).
    rate = completed / ctx.wall_s
    if len(times) >= 10:
        lo, hi = len(times) // 10, (9 * len(times)) // 10
        if times[hi] > times[lo]:
            rate = (hi - lo) * 1000.0 / (times[hi] - times[lo])
    # Service latency per request: every stage but gateway queueing
    # (with a backlog, time-from-admit only measures queue position).
    breakdown = result.breakdown
    service = np.zeros(breakdown.count)
    for stage in STAGES:
        if stage != "queueing":
            service += breakdown.stage_samples(stage)
    return Rep(
        attempted=requests,
        failed=requests if notes else 0,
        completed=completed,
        # spawn + HELLO/READY: run() start to the first completion.
        setup_s=ctx.setup_s + first_completion_s,
        cpu_s=gateway_cpu + worker_cpu,
        wall_s=ctx.wall_s,
        cpu_speed=ctx.cpu_speed,
        wall_speed=ctx.wall_speed,
        calib=ctx.calib,
        req_per_s=rate,
        p50_ms=float(np.percentile(service, 50.0)) if completed else 0.0,
        p99_ms=float(np.percentile(service, 99.0)) if completed else 0.0,
        log_appends=appended,
        exact=(completed, appended),
        real_processes=True,
        layer={
            "compute.gateway.cpu_ms_per_req":
                1000.0 * gateway_cpu / max(completed, 1),
            "compute.worker.cpu_ms_per_req":
                1000.0 * worker_cpu / max(completed, 1),
            "compute.worker.spawn_s": first_completion_s,
        },
        notes=notes,
    )


def live_paced_phase(sizes: Sizes, seed: int, spans: SpanLog
                     ) -> Tuple[Dict[str, float], List[str]]:
    """Telemetry-on paced run (traced ``live_burst`` only): open-loop
    latency from admit, RPC round trips, and how late the generator
    ran.  Kept per-layer: the gateway generator sleeps *after* each
    admit and times from admit rather than from the due time, so this
    latency flatters a stalled gateway until the generator is fixed."""
    import numpy as np

    ctx = RepContext("live_burst", -1, spans)
    requests, rate = sizes.paced_requests, sizes.paced_rate_per_s
    result, notes, _, _ = _run_live(
        sizes, seed, ctx, requests, rate, sizes.paced_warmup_ms,
        telemetry=True,
    )
    points = result.latency_series.points
    arrivals = sorted(t - latency for t, latency in points)
    measured = [latency for t, latency in points
                if t - latency >= sizes.paced_warmup_ms]
    offered_span_ms = (requests - 1) * 1000.0 / rate
    achieved_span_ms = arrivals[-1] - arrivals[0] if arrivals else 0.0
    return {
        "compute.gateway.paced_p50_ms":
            float(np.percentile(measured, 50.0)) if measured else 0.0,
        "compute.gateway.paced_p95_ms":
            float(np.percentile(measured, 95.0)) if measured else 0.0,
        "compute.gateway.rpc_p50_ms": result.extras.get("rpc_p50_ms") or 0.0,
        "compute.gateway.rpc_p99_ms": result.extras.get("rpc_p99_ms") or 0.0,
        "compute.gateway.generator_lag_frac":
            achieved_span_ms / offered_span_ms - 1.0,
    }, notes


WORKLOADS: Dict[str, Callable[[Sizes, int, RepContext], Rep]] = {
    "sim_sharded": rep_sim_sharded,
    "sim_apps": rep_sim_apps,
    "direct_chaos": rep_direct_chaos,
    "live_burst": rep_live_burst,
}
