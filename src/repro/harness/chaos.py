"""Chaos experiment: fault rate × resilience policy sweep.

Drives an increment-style workload — whose correct final state is
computable by construction — while **both** fault dimensions are active:
instance crashes (Bernoulli, as in the Section 7 recovery experiment)
and infrastructure faults (transient log/store errors, timeouts, gray
failure; :mod:`repro.faults`).  For every point the harness reports

* goodput (requests per simulated second),
* latency (median / p99) and the p99 *amplification* over the
  failure-free point of the same system,
* how hard the resilience layer worked (substrate retries, degraded
  cache-served log reads, dropped background appends, breaker trips),
* exactly-once violations: after the run, every key is probed through
  the protocol and compared against the ground-truth increment count.
  The logged protocols must report **zero**; the unsafe baseline is the
  demonstration that the number is not trivially zero.

A second experiment, :func:`run_brownout_comparison`, brows out the
logging layer only (gray/timeout faults at high rate, ``scope="log"``)
and compares log-read p99 with the circuit-breaker's degraded cache
path enabled vs disabled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..config import SystemConfig
from ..observe import CAT_SERVICE, LatencyBreakdown, Tracer
# EXACTLY_ONCE_SYSTEMS is re-exported: the chaos tests and benchmarks
# import it from this module.
from ..protocols.registry import EXACTLY_ONCE_SYSTEMS, SYSTEMS  # noqa: F401
from ..runtime.failures import BernoulliCrashes
from ..runtime.local import LocalRuntime
from ..runtime.services import Cost
from ..simulation.metrics import LatencyRecorder
from .audit import GroundTruth
from .parallel import cell_config, point_kwargs, run_grid, sweep_of
from .report import ExperimentTable


@dataclass
class ChaosPoint:
    """Outcome of one (system, fault rate) chaos run."""

    protocol: str
    fault_rate: float
    crash_f: float
    requests: int
    latency: LatencyRecorder
    violations: int
    retries: int
    degraded_reads: int
    dropped_appends: int
    breaker_trips: int
    crashes_fired: int
    counters: Dict[str, int] = field(default_factory=dict)
    #: Per-request latency decomposition built from each invocation's
    #: ``cost_by_kind`` (stages sum exactly to the request latency).
    breakdown: Optional[LatencyBreakdown] = None

    @property
    def faulted_attempts(self) -> int:
        """Attempts abandoned because a substrate blew its retry budget."""
        return self.counters.get("attempts_lost_to_service_faults", 0)

    @property
    def goodput_per_s(self) -> float:
        """Requests completed per simulated second (direct mode runs
        requests back-to-back, so total simulated time is the latency
        sum)."""
        total_ms = sum(self.latency.samples)
        if total_ms <= 0:
            return 0.0
        return self.requests * 1000.0 / total_ms


def _increment_workload(runtime: LocalRuntime, num_keys: int):
    """Register the chaos workload: counters whose correct final value
    is the number of increment requests routed to each key."""
    keys = [f"c{i}" for i in range(num_keys)]
    for key in keys:
        runtime.populate(key, 0)

    def bump(ctx, key):
        value = ctx.read(key)
        ctx.write(key, value + 1)
        return value + 1

    def peek(ctx, key):
        return ctx.read(key)

    def probe(ctx, key):
        return ctx.read(key)

    runtime.register("bump", bump)
    runtime.register("peek", peek)
    runtime.register("probe", probe)
    return keys


def run_chaos_point(
    protocol: str,
    fault_rate: float,
    config: Optional[SystemConfig] = None,
    requests: int = 200,
    num_keys: int = 40,
    read_ratio: float = 0.4,
    crash_f: float = 0.15,
    crash_horizon: int = 6,
    seed: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> ChaosPoint:
    """One chaos cell: drive the workload, then audit the final state.

    ``crash_horizon`` is small because the workload's invocations are
    short (a handful of checkpoints each); a crash draw beyond the last
    checkpoint is a no-op, so a tight horizon keeps the *effective*
    crash rate close to ``crash_f``.
    """
    cfg = cell_config(config, seed).with_fault_rate(fault_rate).validate()
    runtime = LocalRuntime(cfg, protocol=protocol)
    runtime.backend.tracer = tracer
    if crash_f > 0.0:
        runtime.crash_policy = BernoulliCrashes(
            crash_f, runtime.backend.rng.stream("chaos-crashes"),
            horizon=crash_horizon,
        )
    keys = _increment_workload(runtime, num_keys)
    rng = runtime.backend.rng.stream("chaos-requests")

    latency = LatencyRecorder(f"{protocol}@fault={fault_rate}")
    breakdown = LatencyBreakdown(f"{protocol}@fault={fault_rate}")
    truth = GroundTruth(keys)
    for _ in range(requests):
        key = keys[int(rng.integers(0, len(keys)))]
        if float(rng.random()) < read_ratio:
            result = runtime.invoke("peek", key)
        else:
            result = runtime.invoke("bump", key)
            truth.count(key)
        latency.record(result.latency_ms)
        breakdown.record(result.cost_by_kind)

    violations = truth.violations(runtime)

    counters = runtime.backend.counters.as_dict()
    policy = runtime.crash_policy
    return ChaosPoint(
        protocol=protocol,
        fault_rate=fault_rate,
        crash_f=crash_f,
        requests=requests,
        latency=latency,
        violations=violations,
        retries=counters.get("service_retries", 0),
        degraded_reads=counters.get("degraded_log_reads", 0),
        dropped_appends=counters.get("background_appends_dropped", 0),
        breaker_trips=runtime.backend.breaker_trips(),
        crashes_fired=getattr(policy, "crashes_fired", 0),
        counters=counters,
        breakdown=breakdown,
    )


@sweep_of(run_chaos_point, pins={"fault_rate": "fault_rates"})
def run_chaos_sweep(
    fault_rates: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    systems: Sequence[str] = SYSTEMS,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """Fault rate × system sweep under composed crashes + infra faults.

    ``unsafe`` is the control that proves the violation counter can
    fire.  Remaining keywords are :func:`run_chaos_point`'s.  The
    table's ``points`` carry each cell's per-request latency
    decomposition (``breakdown``).

    ``jobs`` runs the (system, rate) cells over a process pool; rows and
    amplification baselines come out identical because the cells are
    reassembled in grid order before any of that logic.
    """
    crash_f = point_kwargs(run_chaos_point, point)["crash_f"]
    table = ExperimentTable(
        "Chaos: goodput and latency under crashes + infrastructure "
        f"faults (crash f={crash_f})",
        ["system", "fault rate", "goodput (req/s)", "median (ms)",
         "p99 (ms)", "p99 amp", "retries", "degraded", "faulted",
         "violations"],
    )
    grid = run_grid(
        run_chaos_point, dict(protocol=systems, fault_rate=fault_rates),
        point, jobs=jobs, tracer=tracer,
    )
    baselines: Dict[str, float] = {}
    for cell, chaos_point in grid:
        p99 = chaos_point.latency.p99()
        # A system's first swept rate is its amplification baseline.
        baseline_p99 = baselines.setdefault(cell["protocol"], p99)
        table.add_row(
            cell["protocol"], cell["fault_rate"],
            chaos_point.goodput_per_s,
            chaos_point.latency.median(), p99,
            p99 / baseline_p99 if baseline_p99 > 0 else 1.0,
            chaos_point.retries, chaos_point.degraded_reads,
            chaos_point.faulted_attempts, chaos_point.violations,
        )
    table.add_note(
        "expected: zero violations for every logged protocol at every "
        "fault rate; the unsafe baseline violates under crashes"
    )
    table.add_note(
        "p99 amp is each system's p99 over its own fault-free p99 — "
        "retry/backoff time charged by the resilience layer"
    )
    return table.attach(grid)


def run_brownout_comparison(
    config: Optional[SystemConfig] = None,
    requests: int = 250,
    num_keys: int = 30,
    brownout_rate: float = 0.35,
    seed: Optional[int] = None,
) -> ExperimentTable:
    """Log brown-out: circuit-breaker cache fallback on vs off.

    Faults target the log only (``scope="log"``); the workload is
    read-heavy under ``halfmoon-read``, so ``logReadPrev`` dominates.
    With the fallback enabled, the breaker opens and cache-resident
    reads are served node-locally; with it disabled every read rides
    out the brown-out through retries.  The log-read columns are each
    arm's ``log_read`` service-span durations: a logged read's cost to
    its caller, timeouts, backoff and gray inflation included.
    """
    table = ExperimentTable(
        f"Log brown-out (rate {brownout_rate}, scope=log): "
        "degraded-read fallback ablation",
        ["fallback", "log-read median (ms)", "log-read p99 (ms)",
         "degraded reads", "breaker trips", "request p99 (ms)"],
    )
    for fallback in (True, False):
        # A tight breaker (both arms) so a short run reaches the open
        # state: 3 consecutive log failures at rate 0.35 are common.
        cfg = (
            cell_config(config, seed)
            .with_fault_rate(brownout_rate, scope="log")
            .with_resilience(degraded_log_reads=fallback,
                             breaker_failure_threshold=3,
                             breaker_cooldown_ops=30)
            .validate()
        )
        runtime = LocalRuntime(cfg, protocol="halfmoon-read")
        tracer = runtime.backend.tracer = Tracer()
        keys = _increment_workload(runtime, num_keys)
        rng = runtime.backend.rng.stream("brownout-requests")
        latency = LatencyRecorder(f"brownout fallback={fallback}")
        for i in range(requests):
            key = keys[int(rng.integers(0, len(keys)))]
            # Read-heavy: 1 write per 10 requests keeps versions moving.
            if i % 10 == 0:
                result = runtime.invoke("bump", key)
            else:
                result = runtime.invoke("peek", key)
            latency.record(result.latency_ms)
        log_read = LatencyRecorder(f"log_read fallback={fallback}")
        log_read.extend(
            span.duration_ms for span in tracer.spans_in(CAT_SERVICE)
            if span.name == Cost.LOG_READ
        )
        counters = runtime.backend.counters.as_dict()
        table.add_row(
            "on" if fallback else "off",
            log_read.median(), log_read.p99(),
            counters.get("degraded_log_reads", 0),
            runtime.backend.breaker_trips(),
            latency.p99(),
        )
    table.add_note(
        "log-read columns are a logged read's cost to its caller, "
        "retries included: both arms pay timeout + backoff on a faulted "
        "read; the fallback serves cache-resident reads node-locally "
        "while the breaker is open"
    )
    return table
