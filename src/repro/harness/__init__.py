"""Experiment harness: the DES platform plus one module per table/figure.

* :mod:`repro.harness.micro` — Table 1 and Figure 10
* :mod:`repro.harness.apps` — Figure 11
* :mod:`repro.harness.overhead` — Figures 12 and 13
* :mod:`repro.harness.switching_exp` — Figure 14
* :mod:`repro.harness.recovery_exp` — Section 7 recovery cost
* :mod:`repro.harness.chaos` — fault rate × resilience policy sweep
  (crashes composed with infrastructure faults) and the log brown-out
  degraded-read ablation
* :mod:`repro.harness.failover` — node crash under load: lease-based
  detection, orphan takeover, exactly-once audit
* :mod:`repro.harness.storagechaos` — storage-plane components killed
  under load: metalog failover behind epoch fencing, shard-replica
  loss, partition rebuild, link partitions; exactly-once plus
  plane-consistency audits per cell
* :mod:`repro.harness.trace_exp` — one fully traced DES run for
  Chrome trace-event export and latency-breakdown reports
* :mod:`repro.harness.shards_exp` — storage-plane scaling: p99 vs load
  as the log splits across 1/2/4/8 shards
* :mod:`repro.harness.scale_exp` — sequencer scaling: p99 + sequencer
  occupancy vs offered load per sequencing strategy (monolith /
  batched / leased-ranges) under Zipf-skewed 10⁵–10⁶-user traffic
* :mod:`repro.harness.live_exp` — the live compute-plane audit:
  real worker processes, seeded SIGKILLs, wall-clock leases
  (``python -m repro live``)
* :mod:`repro.harness.parallel` — the sweep template and executor:
  ``run_grid`` over independent, deterministically-seeded cells on a
  process pool (``--jobs``), bit-identical to serial execution
* :mod:`repro.harness.audit` — the exactly-once audit the four audited
  experiments share: ground truth, probe pass, and the one verdict
* :mod:`repro.harness.profile_exp` — cProfile hotspot reports for the
  canonical cells (``python -m repro profile``)
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".apps": ("APP_FACTORIES", "run_app_point", "run_fig11"),
    ".audit": ("audit_failures", "audit_verdict"),
    ".chaos": (
        "run_brownout_comparison", "run_chaos_point", "run_chaos_sweep",
    ),
    ".failover": ("run_failover_point",),
    ".micro": ("measure_op_latencies", "run_fig10", "run_table1"),
    ".parallel": ("SweepCell", "run_cells", "run_grid", "seed_for"),
    ".overhead": (
        "crossover_ratio", "run_fig12", "run_fig13", "run_latency_breakdown",
        "run_overhead_point",
    ),
    ".platform": ("SimPlatform",),
    ".recovery_exp": ("run_recovery_sweep",),
    ".scale_exp": ("run_scale_point",),
    ".shards_exp": (
        "run_shard_point", "run_shard_sweep", "shard_sweep_config",
    ),
    ".report": ("ExperimentTable",),
    ".storagechaos": ("run_storagechaos_point",),
    ".trace_exp": (
        "run_trace", "trace_breakdown_table", "trace_summary_table",
    ),
    ".switching_exp": ("run_fig14", "run_fig14_point"),
    # Defined under ``workloads`` so a live worker's image need not
    # import the harness; exported here for the paths the benchmark pins.
    "..workloads.counter": ("CounterWorkload",),
})

__all__ = [
    "APP_FACTORIES",
    "CounterWorkload",
    "ExperimentTable",
    "SimPlatform",
    "SweepCell",
    "audit_failures",
    "audit_verdict",
    "crossover_ratio",
    "measure_op_latencies",
    "run_app_point",
    "run_brownout_comparison",
    "run_cells",
    "run_chaos_point",
    "run_chaos_sweep",
    "run_failover_point",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig14_point",
    "run_grid",
    "run_latency_breakdown",
    "run_overhead_point",
    "run_recovery_sweep",
    "run_scale_point",
    "run_shard_point",
    "run_shard_sweep",
    "run_storagechaos_point",
    "run_table1",
    "seed_for",
    "shard_sweep_config",
    "run_trace",
    "trace_breakdown_table",
    "trace_summary_table",
]
