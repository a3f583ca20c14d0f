"""Storage-chaos experiment: kill storage components under load.

The failover experiment kills *function nodes*; this one kills the
storage plane itself — the metalog sequencer, individual log-shard
replicas, and KV partitions — and severs worker↔shard / metalog↔shard
links on a seeded schedule, while instance crashes (Bernoulli, as in
the chaos experiment) run underneath.  Each cell of the grid

    component killed × protocol × replication factor

drives the failover counter workload through the DES platform, fires
the component's crash/recovery events mid-run via
:class:`~repro.recovery.StorageChaosController`, heals the plane, and
then runs two audits:

* **exactly-once** — every completed ``bump`` increments a computable
  ground truth; after healing, every key is probed through the
  protocol.  The logged protocols must report **zero** violations in
  every cell; the unsafe baseline is the control that proves the
  counter can fire.
* **storage consistency** — :func:`storage_consistency_report` checks
  stream integrity, refcounts, trim directories, replica agreement and
  liveness, and partition rebuilds are diffed key-by-key against a
  pre-crash snapshot.  ``anomalies`` must come back empty.

Replication=1 is the paper-faithful default (Halfmoon delegates
storage-tier durability to Boki's log / DynamoDB); R=3 shows the same
protocols riding through replica loss without even a rebuild.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence

from ..config import SystemConfig
from ..observe import Tracer
from ..protocols.registry import SYSTEMS
from ..recovery import StorageChaosController
from ..runtime.failures import BernoulliCrashes, NoCrashes
from ..workloads.counter import CounterWorkload
from .audit import GroundTruth, anomaly_count, storage_anomalies
from .parallel import (
    cell_config,
    point_kwargs,
    run_grid,
    seed_for,
    sweep_of,
)
from .platform import RunResult, SimPlatform
from .report import ExperimentTable

#: Grid axes.  ``netsplit`` cells arm the seeded link-partition
#: schedule instead of killing a component.
DEFAULT_COMPONENTS = ("metalog", "shard-replica", "partition", "netsplit")
DEFAULT_REPLICATIONS = (1, 3)
#: Sequencing strategies to chaos-test.  ``("monolith",)`` keeps the
#: default grid (and its per-cell seeds) bit-identical to the
#: pre-sequencer-axis sweep; ``--sequencers monolith batched
#: leased-ranges`` proves the group-commit and leased-range paths keep
#: exactly-once through metalog failover too.
DEFAULT_SEQUENCERS = ("monolith",)


@dataclass
class StorageChaosPoint:
    """Outcome of one (system, component, replication) chaos cell."""

    protocol: str
    component: str
    replication: int
    result: RunResult
    #: Keys whose audited value disagrees with the ground truth.
    violations: int
    expected_bumps: int
    #: Plane invariant violations found after healing (must be empty).
    anomalies: List[str]
    #: Key-level partition rebuild diffs (must be empty).
    rebuild_diffs: List[str]
    #: Controller event log + failover/rebuild counts.
    chaos: Dict[str, Any]
    #: Storage-side injected fault counts, by component label.
    injected: Dict[str, int] = field(default_factory=dict)
    #: Sequencing strategy the cell's metalog ran under.
    sequencer: str = "monolith"

    @property
    def fenced_appends(self) -> int:
        return self.chaos.get("fenced_appends", 0)

    @property
    def rediscoveries(self) -> int:
        return self.result.counters.get("epoch_rediscoveries", 0)

    @property
    def unavailable_ops(self) -> int:
        return self.result.counters.get("storage_unavailable_ops", 0)

    @property
    def rebuilds(self) -> int:
        return (self.chaos.get("shard_rebuilds", 0)
                + self.chaos.get("partition_rebuilds", 0))


def run_storagechaos_point(
    protocol: str,
    component: str,
    replication: int = 1,
    crash_at_ms: float = 1_000.0,
    recover_after_ms: float = 400.0,
    rate_per_s: float = 400.0,
    duration_ms: float = 3_000.0,
    drain_ms: float = 8_000.0,
    log_shards: int = 2,
    kv_partitions: int = 2,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    crash_f: float = 0.1,
    crash_horizon: int = 6,
    storage_fault_rate: float = 0.01,
    netsplit_windows: int = 4,
    compute_ms: float = 6.0,
    sequencer: str = "monolith",
    tracer: Optional[Tracer] = None,
) -> StorageChaosPoint:
    """One cell: kill ``component`` at ``crash_at_ms``, recover, audit.

    Instance crashes run underneath at ``crash_f`` (the unsafe control
    needs an effect-duplicating fault class — storage faults alone are
    omission-only and can never double-apply), and every cell keeps the
    storage-side injection points warm at ``storage_fault_rate``.
    """
    if component not in DEFAULT_COMPONENTS:
        raise ValueError(f"unknown storage component {component!r}")
    chaos: Dict[str, Any] = dict(
        shard_error_rate=storage_fault_rate * 0.5,
        shard_timeout_rate=storage_fault_rate * 0.5,
        partition_error_rate=storage_fault_rate * 0.5,
        partition_timeout_rate=storage_fault_rate * 0.5,
    )
    if component == "netsplit":
        chaos.update(
            partition_windows=netsplit_windows,
            partition_horizon_ms=duration_ms,
        )
    cfg = (
        cell_config(config, seed)
        .with_storage_plane(
            backend="sharded",
            log_shards=log_shards,
            kv_partitions=kv_partitions,
            replication=replication,
            sequencer=sequencer,
        )
        .with_storage_chaos(**chaos)
    )
    # A whole-component outage lasts hundreds of milliseconds while the
    # circuit breaker fails attempts fast; with the default 1ms
    # re-dispatch delay an invocation can burn its entire attempt
    # budget inside the outage window.  Space attempt-level retries so
    # the budget spans any recovery in this experiment's schedule.
    cfg = replace(
        cfg, failures=replace(cfg.failures, detection_delay_ms=25.0)
    ).validate()

    num_keys = int(rate_per_s * duration_ms / 1000.0) * 2 + 64
    workload = CounterWorkload(num_keys=num_keys, compute_ms=compute_ms)
    platform = SimPlatform(workload, protocol, config=cfg, tracer=tracer)
    if crash_f > 0.0:
        platform.runtime.crash_policy = BernoulliCrashes(
            crash_f,
            platform.runtime.backend.rng.stream("storage-chaos-crashes"),
            horizon=crash_horizon,
        )

    truth = GroundTruth(workload.keys)
    platform.on_request_complete = truth.on_request_complete

    controller = StorageChaosController(platform)
    if component == "metalog":
        controller.schedule_sequencer_crash(crash_at_ms, recover_after_ms)
    elif component == "shard-replica":
        controller.schedule_shard_crash(
            crash_at_ms, shard_id=0, recover_after_ms=recover_after_ms
        )
    elif component == "partition":
        controller.schedule_partition_crash(
            crash_at_ms, index=0, rebuild_after_ms=recover_after_ms
        )
    # "netsplit": the link windows are armed in the config; nothing to
    # kill — the schedule itself is the chaos.

    result = platform.run(rate_per_s, duration_ms, drain_ms=drain_ms)

    # Heal whatever is still down, then audit the plane's invariants.
    controller.heal()
    anomalies = storage_anomalies(platform.runtime.backend.plane)

    # Quiesce chaos for the exactly-once audit: probes observe committed
    # state, so faulting the auditor tests nothing — and a direct-mode
    # probe starts at t≈0, where it could sit pinned inside a link
    # window and burn its whole attempt budget.  Grab the injected
    # counts first; the run's chaos is what the point reports.
    injector = platform.runtime.backend.storage_faults
    platform.runtime.backend.storage_faults = None
    platform.runtime.crash_policy = NoCrashes()

    return StorageChaosPoint(
        protocol=protocol,
        component=component,
        replication=replication,
        result=result,
        violations=truth.violations(platform.runtime),
        expected_bumps=truth.bumps,
        anomalies=anomalies,
        rebuild_diffs=list(controller.rebuild_diffs),
        chaos=controller.report(),
        injected=dict(injector.injected) if injector is not None else {},
        sequencer=sequencer,
    )


@sweep_of(run_storagechaos_point,
          pins={"storage_backend": None, "sequencer": "sequencers"})
def run_storagechaos_sweep(
    components: Sequence[str] = DEFAULT_COMPONENTS,
    systems: Sequence[str] = SYSTEMS,
    replications: Sequence[int] = DEFAULT_REPLICATIONS,
    sequencers: Sequence[str] = DEFAULT_SEQUENCERS,
    config: Optional[SystemConfig] = None,
    seed: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    jobs: Optional[int] = None,
    **point,
) -> ExperimentTable:
    """Component × system × replication (× sequencer) grid under
    storage chaos.  Remaining keywords are
    :func:`run_storagechaos_point`'s.

    Per-cell seeds derive through :func:`seed_for` from the sweep seed
    and the cell key, so the grid is decorrelated and — like every
    sweep — bit-identical at any ``--jobs`` count.  ``monolith`` cells
    keep the historical key (no sequencer element), so the default grid
    is byte-identical to the pre-sequencer-axis sweep; non-monolith
    cells append the strategy name to the key and draw fresh seeds.
    """
    base_seed = cell_config(config, seed).seed
    point["config"] = config
    effective = point_kwargs(run_storagechaos_point, point)
    table = ExperimentTable(
        "Storage chaos: component killed at "
        f"t={effective['crash_at_ms']:.0f}ms, recovered "
        f"+{effective['recover_after_ms']:.0f}ms "
        f"(instance crash f={effective['crash_f']})",
        ["system", "component", "R", "seq", "completed", "fenced",
         "rediscover", "unavail ops", "rebuilds", "anomalies",
         "violations"],
    )
    cells = []
    for sequencer, replication, system, component in itertools.product(
            sequencers, replications, systems, components):
        key = ("storagechaos", system, component, replication)
        if sequencer != "monolith":
            key = key + (sequencer,)
        cells.append(dict(
            protocol=system, component=component,
            replication=replication, sequencer=sequencer,
            seed=seed_for(base_seed, key),
        ))
    grid = run_grid(
        run_storagechaos_point, cells, point, jobs=jobs, tracer=tracer
    )
    for cell, chaos_point in grid:
        table.add_row(
            cell["protocol"], cell["component"], cell["replication"],
            cell["sequencer"],
            chaos_point.result.completed, chaos_point.fenced_appends,
            chaos_point.rediscoveries, chaos_point.unavailable_ops,
            chaos_point.rebuilds, anomaly_count(chaos_point),
            chaos_point.violations,
        )
    table.add_note(
        "expected: zero violations and zero anomalies for every logged "
        "protocol in every cell; the unsafe baseline violates under the "
        "composed instance crashes"
    )
    if tuple(sequencers) != ("monolith",):
        table.add_note(
            "seq = metalog sequencing strategy; batched flushes its "
            "group-commit buffer before every failover and leased-"
            "ranges discards epoch-stale blocks, so the exactly-once "
            "audit must stay clean under all strategies"
        )
    table.add_note(
        "fenced = appends rejected by epoch fencing after metalog "
        "failover; rediscover = leader rediscoveries those triggered; "
        "unavail ops = operations rejected before effect while a "
        "component was down"
    )
    return table.attach(grid)
