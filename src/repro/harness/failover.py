"""Failover experiment: node crashes under load, per protocol.

Drives an increment workload through the DES platform, kills one or
more function nodes mid-run, and measures the full recovery pipeline:
lease-expiry detection, orphan takeover, and log-guided replay on the
surviving nodes.  Because detection latency is a simulated cost, the
sweep shows takeover time scaling with the configured lease duration —
and because every system replays through its own protocol, the
Section 7 recovery-cost asymmetry (Boki's symmetric replay vs.
Halfmoon's log-free re-execution) shows up in the tail latency of the
recovered requests.

The audit is the same ground-truth construction the chaos harness uses:
every completed ``bump`` increments a computable expected count, and
after the run each key is probed through the protocol.  The logged
protocols must report **zero** violations even when node crashes are
composed with infrastructure faults.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer
from ..protocols.registry import EXACTLY_ONCE_SYSTEMS, PROTOCOL_CLASSES
from ..workloads.counter import CounterWorkload
from .audit import GroundTruth
from .parallel import cell_config, point_kwargs, run_grid, sweep_of
from .platform import RunResult, SimPlatform
from .report import ExperimentTable


@dataclass
class FailoverPoint:
    """Outcome of one (system, lease) failover run."""

    protocol: str
    lease_ms: float
    recovery_mode: str
    result: RunResult
    #: Keys whose audited value disagrees with the ground truth.
    violations: int
    expected_bumps: int


def run_failover_point(
    protocol: str,
    lease_ms: float,
    crash_at_ms: float = 1_500.0,
    crash_nodes: Sequence[int] = (0,),
    rate_per_s: float = 600.0,
    duration_ms: float = 4_000.0,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    fault_rate: float = 0.0,
    num_keys: Optional[int] = None,
    compute_ms: float = 8.0,
    drain_ms: float = 12_000.0,
    tracer: Optional[Tracer] = None,
) -> FailoverPoint:
    """One failover cell: crash ``crash_nodes`` at ``crash_at_ms``.

    The heartbeat interval and detector poll scale with the lease so
    detection latency stays a fixed multiple of it (the detector fires
    within ``lease + lease/5 + lease/20`` of the crash); ``drain_ms``
    must cover detection plus replay of the takeover backlog.
    """
    base = cell_config(config, seed, fault_rate, lease_ms)
    cfg = replace(
        base,
        cluster=replace(base.cluster, function_nodes=4,
                        workers_per_node=4),
    ).validate()

    if num_keys is None:
        # Fresh key per bump: size the pool at twice the offered load
        # (a >2x Poisson excursion is effectively impossible).
        num_keys = int(rate_per_s * duration_ms / 1000.0) * 2 + 64
    workload = CounterWorkload(num_keys=num_keys,
                               compute_ms=compute_ms)
    platform = SimPlatform(workload, protocol, config=cfg,
                           tracer=tracer)

    truth = GroundTruth(workload.keys)
    platform.on_request_complete = truth.on_request_complete
    for node_id in crash_nodes:
        platform.schedule_node_crash(crash_at_ms, node_id)

    result = platform.run(rate_per_s, duration_ms, drain_ms=drain_ms)

    return FailoverPoint(
        protocol=protocol,
        lease_ms=lease_ms,
        recovery_mode=PROTOCOL_CLASSES[protocol].recovery_mode,
        result=result,
        violations=truth.violations(platform.runtime),
        expected_bumps=truth.bumps,
    )


@sweep_of(run_failover_point)
def run_failover_sweep(
    lease_values: Sequence[float] = (250.0, 1_000.0, 4_000.0),
    systems: Sequence[str] = EXACTLY_ONCE_SYSTEMS,
    fault_rate: float = 0.05,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """Lease duration × system sweep with one node crash under load.

    Node crashes are composed with infrastructure faults at
    ``fault_rate`` so recovery is exercised against the same substrate
    misbehaviour the chaos experiment injects.  Remaining keywords are
    :func:`run_failover_point`'s.

    ``jobs`` fans the (system, lease) cells out over a process pool;
    results are reassembled in grid order, so the table and its
    ``points`` are identical at every job count.
    """
    point["fault_rate"] = fault_rate
    effective = point_kwargs(run_failover_point, point)
    table = ExperimentTable(
        "Failover: node crash at "
        f"t={effective['crash_at_ms']:.0f}ms "
        f"(nodes {list(effective['crash_nodes'])}, "
        f"infra fault rate {fault_rate})",
        ["system", "lease (ms)", "recovery", "completed", "orphans",
         "recovered", "detect (ms)", "takeover p50 (ms)",
         "takeover p99 (ms)", "faulted", "violations"],
    )
    grid = run_grid(
        run_failover_point, dict(protocol=systems, lease_ms=lease_values),
        point, jobs=jobs, tracer=tracer,
    )
    for cell, failover_point in grid:
        result = failover_point.result
        detect = result.detection_ms
        takeover = result.takeover_ms
        table.add_row(
            cell["protocol"], cell["lease_ms"],
            failover_point.recovery_mode,
            result.completed, result.orphaned_invocations,
            result.recovered_orphans,
            detect.mean() if detect and detect.count else 0.0,
            takeover.median() if takeover and takeover.count else 0.0,
            takeover.p99() if takeover and takeover.count else 0.0,
            result.faulted_attempts, failover_point.violations,
        )
    table.add_note(
        "detect = mean lease-expiry detection latency; takeover = time "
        "from crash to an orphan's re-dispatch on a survivor."
    )
    table.add_note(
        "violations = keys whose audited value diverges from the "
        "ground-truth increment count (must be 0 for logged protocols)."
    )
    return table.attach(grid)
