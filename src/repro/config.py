"""Configuration objects for the Halfmoon reproduction.

The latency constants are calibrated against the numbers the paper itself
reports (Table 1 and Section 4.1):

* shared-log append: 1.18 ms median, 1.91 ms p99 (Table 1, "Log");
* raw DynamoDB read: 1.88 ms median, 4.60 ms p99 (Table 1, "Read");
* raw DynamoDB write: 2.47 ms median, 5.86 ms p99 (Table 1, "Write");
* cached ``logReadPrev``: 0.12 ms median, 0.72 ms p99 (Section 4.1,
  quoting Boki's measurements);
* conditional writes cost more than blind writes (Section 6.1 explains that
  Halfmoon-write's log-free writes remain above raw writes because the
  update is conditional).  We model the conditional surcharge as a
  multiplicative factor.

All times in this library are expressed in **milliseconds** of simulated
time unless a name says otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError

# ---------------------------------------------------------------------------
# Latency calibration (medians / p99s in milliseconds).
# ---------------------------------------------------------------------------

LOG_APPEND_MEDIAN_MS = 1.18
LOG_APPEND_P99_MS = 1.91

DB_READ_MEDIAN_MS = 1.88
DB_READ_P99_MS = 4.60

DB_WRITE_MEDIAN_MS = 2.47
DB_WRITE_P99_MS = 5.86

LOG_READ_CACHED_MEDIAN_MS = 0.12
LOG_READ_CACHED_P99_MS = 0.72

#: A log read that misses the function-node cache pays a storage-node round
#: trip comparable to an append.
LOG_READ_MISS_MEDIAN_MS = 1.05
LOG_READ_MISS_P99_MS = 1.80

#: Conditional updates (compare version, then write) cost more than a blind
#: put.  Chosen so that Boki's logged conditional write and Halfmoon-write's
#: log-free conditional write land where Figure 10(b) puts them: the paper
#: notes log-free writes stay above raw writes because they are conditional.
CONDITIONAL_WRITE_FACTOR = 1.18

#: Reading a specific object version adds version-key indirection over a
#: plain read; calibrated so Halfmoon-read's reads carry the small overhead
#: over unsafe raw reads that Section 6.1 reports (~15-20%).
MULTIVERSION_READ_FACTOR = 1.15

#: Installing a new object version pays the same indirection on the write
#: path (composite version key).
MULTIVERSION_WRITE_FACTOR = 1.08

#: Both Boki and Halfmoon-read append two log records per write
#: (Section 4.1).  The intent record overlaps with the DB write, so it
#: costs this fraction of a full synchronous append on the critical path.
#: Calibrated so that C_w ~= 2 C_r (Section 4.6) and the runtime boundary
#: lands near read ratio 2/3 (Figure 13).
OVERLAPPED_LOG_FACTOR = 0.55

#: Control records (init, invoke intent/result) are pure progress
#: checkpoints replicated fully off the critical path — the sequencer
#: returns the seqnum immediately.  Only this small fraction of an append
#: is latency-visible.
CONTROL_LOG_FACTOR = 0.25

#: Fixed per-invocation runtime overhead (scheduling, marshalling).
INVOKE_OVERHEAD_MEDIAN_MS = 0.35
INVOKE_OVERHEAD_P99_MS = 0.90

#: Pure compute time of a synthetic SSF body, excluding state operations.
FUNCTION_COMPUTE_MS = 0.25


@dataclass(frozen=True)
class LatencyConfig:
    """Latency distribution parameters for every simulated service call."""

    log_append_median_ms: float = LOG_APPEND_MEDIAN_MS
    log_append_p99_ms: float = LOG_APPEND_P99_MS
    db_read_median_ms: float = DB_READ_MEDIAN_MS
    db_read_p99_ms: float = DB_READ_P99_MS
    db_write_median_ms: float = DB_WRITE_MEDIAN_MS
    db_write_p99_ms: float = DB_WRITE_P99_MS
    log_read_cached_median_ms: float = LOG_READ_CACHED_MEDIAN_MS
    log_read_cached_p99_ms: float = LOG_READ_CACHED_P99_MS
    log_read_miss_median_ms: float = LOG_READ_MISS_MEDIAN_MS
    log_read_miss_p99_ms: float = LOG_READ_MISS_P99_MS
    conditional_write_factor: float = CONDITIONAL_WRITE_FACTOR
    multiversion_read_factor: float = MULTIVERSION_READ_FACTOR
    multiversion_write_factor: float = MULTIVERSION_WRITE_FACTOR
    overlapped_log_factor: float = OVERLAPPED_LOG_FACTOR
    control_log_factor: float = CONTROL_LOG_FACTOR
    invoke_overhead_median_ms: float = INVOKE_OVERHEAD_MEDIAN_MS
    invoke_overhead_p99_ms: float = INVOKE_OVERHEAD_P99_MS
    function_compute_ms: float = FUNCTION_COMPUTE_MS

    def validate(self) -> None:
        for name, median, p99 in [
            ("log_append", self.log_append_median_ms, self.log_append_p99_ms),
            ("db_read", self.db_read_median_ms, self.db_read_p99_ms),
            ("db_write", self.db_write_median_ms, self.db_write_p99_ms),
            ("log_read_cached", self.log_read_cached_median_ms,
             self.log_read_cached_p99_ms),
            ("log_read_miss", self.log_read_miss_median_ms,
             self.log_read_miss_p99_ms),
            ("invoke_overhead", self.invoke_overhead_median_ms,
             self.invoke_overhead_p99_ms),
        ]:
            if median <= 0:
                raise ConfigError(f"{name} median must be positive")
            if p99 < median:
                raise ConfigError(f"{name} p99 must be >= median")
        if self.conditional_write_factor < 1.0:
            raise ConfigError("conditional_write_factor must be >= 1")
        if self.multiversion_read_factor < 1.0:
            raise ConfigError("multiversion_read_factor must be >= 1")
        if self.multiversion_write_factor < 1.0:
            raise ConfigError("multiversion_write_factor must be >= 1")
        if not 0.0 <= self.overlapped_log_factor <= 1.0:
            raise ConfigError("overlapped_log_factor must be in [0, 1]")
        if not 0.0 <= self.control_log_factor <= 1.0:
            raise ConfigError("control_log_factor must be in [0, 1]")
        if self.function_compute_ms < 0:
            raise ConfigError("function_compute_ms must be >= 0")


@dataclass(frozen=True)
class ClusterConfig:
    """Shape of the simulated serverless deployment.

    Mirrors the paper's testbed: eight function nodes behind one gateway,
    with a logging layer of three storage nodes and one sequencer.  The
    worker count per node controls where the latency/throughput curve
    saturates.
    """

    function_nodes: int = 8
    workers_per_node: int = 8
    storage_nodes: int = 3
    #: Optional queueing model of the logging layer itself: every append
    #: passes through the sequencer and one of ``storage_nodes`` shards,
    #: each a FIFO station with the given per-append service times.  Off
    #: by default — the paper notes logging is typically not the
    #: bottleneck, and the dedicated test validates exactly that.
    model_log_contention: bool = False
    sequencer_service_ms: float = 0.02
    log_shard_service_ms: float = 0.05
    #: Per-partition FIFO queueing of the external store (same station
    #: model as the log shards).  Off by default; the shard-sweep
    #: experiment enables it so offered load saturates per-partition.
    model_store_contention: bool = False
    store_partition_service_ms: float = 0.05

    def validate(self) -> None:
        if self.function_nodes <= 0:
            raise ConfigError("function_nodes must be positive")
        if self.workers_per_node <= 0:
            raise ConfigError("workers_per_node must be positive")
        if self.storage_nodes <= 0:
            raise ConfigError("storage_nodes must be positive")
        if self.sequencer_service_ms < 0 or self.log_shard_service_ms < 0:
            raise ConfigError("log-layer service times must be >= 0")
        if self.store_partition_service_ms < 0:
            raise ConfigError("store service time must be >= 0")

    @property
    def total_workers(self) -> int:
        return self.function_nodes * self.workers_per_node


@dataclass(frozen=True)
class GCConfig:
    """Garbage-collector schedule (Section 4.5)."""

    interval_ms: float = 10_000.0
    enabled: bool = True

    def validate(self) -> None:
        if self.interval_ms <= 0:
            raise ConfigError("gc interval must be positive")


@dataclass(frozen=True)
class StorageSizeConfig:
    """Storage-plane topology and byte-size accounting.

    ``meta_bytes`` is the size of a log record's metadata (seqnum, tags,
    step/op fields); Section 4.1 notes this fits in a few dozen bytes.

    The plane fields select the backend :func:`repro.storageplane.
    build_storage_plane` constructs:

    * ``backend`` — ``"auto"`` (default; ``single`` at a 1×1 topology,
      ``sharded`` otherwise), ``"single"`` or ``"sharded"``;
    * ``log_shards`` — number of log storage shards behind the metalog
      sequencer (tag sub-streams are routed by a stable CRC-32 hash);
    * ``kv_partitions`` — number of hash partitions of the external
      store (versions co-locate with their base key);
    * ``replication`` — log-shard replica count.  At 1 (the default and
      the paper-faithful configuration; see EXPERIMENTS.md) each shard
      holds a single copy of its sub-stream indexes and a lost shard is
      rebuilt from the record directory; at R>1 appends require a
      majority write quorum and a lost replica is re-replicated from a
      survivor;
    * ``sequencer`` — sequencing strategy over the metalog (see
      :mod:`repro.storageplane.sequencer`): ``"monolith"`` (the paper's
      single global cursor, bit-identical to the pre-refactor code),
      ``"batched"`` (group commit: one sequencer commit per
      ``sequencer_batch`` appends, held at most ``sequencer_hold_ms``),
      or ``"leased-ranges"`` (epoch-leased blocks of
      ``sequencer_block`` seqnums, fenced on failover).

    The default 1×1 topology is the paper-faithful configuration and is
    bit-identical to the pre-plane substrates.
    """

    value_bytes: int = 256
    meta_bytes: int = 48
    backend: str = "auto"
    log_shards: int = 1
    kv_partitions: int = 1
    replication: int = 1
    sequencer: str = "monolith"
    sequencer_batch: int = 8
    sequencer_hold_ms: float = 0.2
    sequencer_block: int = 64

    def validate(self) -> None:
        if min(self.value_bytes, self.meta_bytes) <= 0:
            raise ConfigError("storage sizes must be positive")
        if self.log_shards <= 0:
            raise ConfigError("log_shards must be positive")
        if self.kv_partitions <= 0:
            raise ConfigError("kv_partitions must be positive")
        if self.replication <= 0:
            raise ConfigError("replication must be positive")
        if not self.backend:
            raise ConfigError("backend must be a non-empty name")
        # Registry membership is checked at plane-build time (the
        # registry lives in repro.storageplane); here only shape.
        if not self.sequencer:
            raise ConfigError("sequencer must be a non-empty name")
        if self.sequencer_batch <= 0:
            raise ConfigError("sequencer_batch must be positive")
        if self.sequencer_hold_ms < 0:
            raise ConfigError("sequencer_hold_ms must be >= 0")
        if self.sequencer_block <= 0:
            raise ConfigError("sequencer_block must be positive")


@dataclass(frozen=True)
class FailureConfig:
    """How the runtime reacts to a crashed SSF attempt.

    ``max_retries`` bounds re-execution and ``detection_delay_ms`` is
    the gap before the next attempt starts.  *Which* attempts crash is
    not configuration: a run installs a
    :class:`~repro.runtime.failures.CrashPolicy` on its runtime.
    """

    max_retries: int = 64
    detection_delay_ms: float = 1.0

    def validate(self) -> None:
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.detection_delay_ms < 0:
            raise ConfigError("detection_delay_ms must be >= 0")


@dataclass(frozen=True)
class RecoveryConfig:
    """Node-level crash recovery: lease-based detection and takeover.

    The third fault dimension (after instance crashes and infrastructure
    faults): a whole *function node* dies, killing every in-flight SSF
    instance on it and losing its slice of the record cache.  Recovery
    follows the paper's Section 4.5 story with Boki-style engine
    fail-over timing: every node holds a lease it renews by heartbeating
    the gateway every ``heartbeat_interval_ms``; the gateway's failure
    detector polls each ``detector_poll_ms`` and declares a node dead
    once its lease has been silent for ``lease_ms``.  Detection is thus
    a first-class simulated cost in ``[lease_ms, lease_ms +
    heartbeat_interval_ms + detector_poll_ms)``.  Orphaned SSFs are then
    re-dispatched to surviving nodes, where the normal protocol replay
    paths (symmetric replay vs. log-free re-execution) take over.  A
    crashed node rejoins ``restart_delay_ms`` after the crash, with
    empty worker slots and a cold cache.
    """

    enabled: bool = False
    lease_ms: float = 1_000.0
    heartbeat_interval_ms: float = 200.0
    detector_poll_ms: float = 50.0
    restart_delay_ms: float = 8_000.0

    def validate(self) -> None:
        if self.lease_ms <= 0:
            raise ConfigError("lease_ms must be positive")
        if self.heartbeat_interval_ms <= 0:
            raise ConfigError("heartbeat_interval_ms must be positive")
        if self.heartbeat_interval_ms >= self.lease_ms:
            raise ConfigError(
                "heartbeat_interval_ms must be shorter than lease_ms "
                "(otherwise healthy nodes look dead)"
            )
        if self.detector_poll_ms <= 0:
            raise ConfigError("detector_poll_ms must be positive")
        if self.restart_delay_ms < 0:
            raise ConfigError("restart_delay_ms must be >= 0")


@dataclass(frozen=True)
class FaultConfig:
    """Infrastructure fault injection — the second fault dimension.

    Orthogonal to :class:`FailureConfig` (instance crashes): these faults
    strike the *substrates*.  Every externally visible operation draws
    from a dedicated RNG stream and can

    * fail transiently (``error_rate`` — the request is dropped before it
      takes effect, so injected errors never duplicate substrate effects);
    * hang until the per-attempt timeout (``timeout_rate``); or
    * suffer gray-failure latency inflation (``gray_rate`` — the call
      succeeds but costs up to ``gray_factor``× the sampled latency,
      modelling a slow storage node).

    ``scope`` restricts injection to one substrate ("log" or "store"),
    which is how the brown-out experiments target the logging layer.
    """

    enabled: bool = False
    error_rate: float = 0.0
    timeout_rate: float = 0.0
    gray_rate: float = 0.0
    gray_factor: float = 8.0
    scope: str = "all"

    #: Split of a single headline fault rate across the three kinds,
    #: used by :meth:`uniform` and the CLI's ``--fault-rate``.
    ERROR_SHARE = 0.6
    TIMEOUT_SHARE = 0.2
    GRAY_SHARE = 0.2

    @classmethod
    def uniform(cls, rate: float, scope: str = "all",
                gray_factor: float = 8.0) -> "FaultConfig":
        """A plan where each operation faults with probability ``rate``,
        split 60/20/20 across error, timeout, and gray failures."""
        if not 0.0 <= rate < 1.0:
            raise ConfigError("fault rate must be in [0, 1)")
        return cls(
            enabled=rate > 0.0,
            error_rate=rate * cls.ERROR_SHARE,
            timeout_rate=rate * cls.TIMEOUT_SHARE,
            gray_rate=rate * cls.GRAY_SHARE,
            gray_factor=gray_factor,
            scope=scope,
        )

    @property
    def total_rate(self) -> float:
        return self.error_rate + self.timeout_rate + self.gray_rate

    def validate(self) -> None:
        for name, rate in [
            ("error_rate", self.error_rate),
            ("timeout_rate", self.timeout_rate),
            ("gray_rate", self.gray_rate),
        ]:
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.total_rate >= 1.0:
            raise ConfigError("combined fault rate must be < 1")
        if self.gray_factor < 1.0:
            raise ConfigError("gray_factor must be >= 1")
        if self.scope not in ("all", "log", "store"):
            raise ConfigError("scope must be 'all', 'log', or 'store'")


@dataclass(frozen=True)
class StorageChaosConfig:
    """Storage-plane fault injection — the *fourth* fault dimension.

    Orthogonal to instance crashes, worker-side infrastructure faults,
    and node failures: these faults strike the storage plane itself.
    Enabling it arms

    * storage-side injection points: per-shard / per-partition transient
      error and timeout rates, drawn from dedicated per-component RNG
      streams derived through :func:`repro.harness.parallel.seed_for`
      (so ``--jobs N`` sweeps stay bit-identical to serial and the
      worker-side ``infra-faults`` stream is untouched);
    * a seeded network-partition schedule severing worker↔shard and
      metalog↔shard links asymmetrically for windows of
      ``partition_window_ms``, at most ``partition_windows`` of them;
    * epoch stamping of appends, so a metalog failover fences stale
      requests (:class:`~repro.errors.FencedEpochError`).

    With ``enabled=False`` (the default) none of this machinery is
    constructed and every code path is bit-identical to the pre-chaos
    code — the golden-run CI diffs enforce exactly that.
    """

    enabled: bool = False
    #: Per-operation storage-side fault rates, per component.
    shard_error_rate: float = 0.0
    shard_timeout_rate: float = 0.0
    partition_error_rate: float = 0.0
    partition_timeout_rate: float = 0.0
    #: Seeded link-partition schedule (0 windows disables it).
    partition_windows: int = 0
    partition_window_ms: float = 250.0
    partition_horizon_ms: float = 4_000.0

    def validate(self) -> None:
        for name, rate in [
            ("shard_error_rate", self.shard_error_rate),
            ("shard_timeout_rate", self.shard_timeout_rate),
            ("partition_error_rate", self.partition_error_rate),
            ("partition_timeout_rate", self.partition_timeout_rate),
        ]:
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1)")
        if self.shard_error_rate + self.shard_timeout_rate >= 1.0:
            raise ConfigError("combined shard fault rate must be < 1")
        if self.partition_error_rate + self.partition_timeout_rate >= 1.0:
            raise ConfigError("combined partition fault rate must be < 1")
        if self.partition_windows < 0:
            raise ConfigError("partition_windows must be >= 0")
        if self.partition_window_ms <= 0:
            raise ConfigError("partition_window_ms must be positive")
        if self.partition_horizon_ms <= 0:
            raise ConfigError("partition_horizon_ms must be positive")


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry/backoff/deadline policy governing every substrate operation.

    A faulted operation is retried up to ``max_attempts`` times with
    exponential backoff (``base_backoff_ms`` × ``backoff_multiplier``^n,
    capped at ``max_backoff_ms``) plus deterministic jitter drawn from a
    seeded stream (``jitter_fraction`` of the backoff).  Failed attempts
    charge real time to the cost trace: ``error_latency_ms`` for an error
    reply, ``attempt_timeout_ms`` for a hang.  When the cumulative time
    spent inside one operation exceeds ``op_deadline_ms``, or the budget
    runs out, the operation escalates to the instance level
    (:class:`~repro.errors.ServiceUnavailableError`) and the runtime
    re-executes the whole attempt.

    The circuit breaker watches consecutive substrate failures per
    service; after ``breaker_failure_threshold`` it opens for
    ``breaker_cooldown_ops`` operations and degraded modes kick in:
    cache-resident ``logReadPrev``/``logReadNext`` results are served
    from the node-local record cache (``degraded_log_reads``) and
    opportunistic background appends become droppable best-effort work.
    """

    max_attempts: int = 4
    base_backoff_ms: float = 0.5
    backoff_multiplier: float = 2.0
    max_backoff_ms: float = 8.0
    jitter_fraction: float = 0.2
    attempt_timeout_ms: float = 10.0
    error_latency_ms: float = 1.0
    op_deadline_ms: float = 100.0
    breaker_failure_threshold: int = 5
    breaker_cooldown_ops: int = 50
    degraded_log_reads: bool = True
    #: Fenced-epoch handling (``FencedEpochError``): the caller refreshes
    #: its cached metalog leader epoch at a fixed ``rediscovery_ms`` cost
    #: and retries immediately — *not* the blind exponential-backoff
    #: schedule, because the fence already proves the request never
    #: applied and names the fix.  ``max_rediscoveries`` bounds the loop
    #: against a flapping leader.
    rediscovery_ms: float = 2.0
    max_rediscoveries: int = 4

    def validate(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if self.base_backoff_ms < 0 or self.max_backoff_ms < 0:
            raise ConfigError("backoff times must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError("backoff_multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ConfigError("jitter_fraction must be in [0, 1]")
        if self.attempt_timeout_ms < 0 or self.error_latency_ms < 0:
            raise ConfigError("fault latencies must be >= 0")
        if self.op_deadline_ms <= 0:
            raise ConfigError("op_deadline_ms must be positive")
        if self.breaker_failure_threshold < 1:
            raise ConfigError("breaker_failure_threshold must be >= 1")
        if self.breaker_cooldown_ops < 1:
            raise ConfigError("breaker_cooldown_ops must be >= 1")
        if self.rediscovery_ms < 0:
            raise ConfigError("rediscovery_ms must be >= 0")
        if self.max_rediscoveries < 1:
            raise ConfigError("max_rediscoveries must be >= 1")


@dataclass(frozen=True)
class ProtocolConfig:
    """Per-protocol knobs.

    ``align_write_logging_with_boki`` reproduces the prototype decision in
    Section 4.1: Halfmoon-read logs both before and after ``DBWrite`` (the
    version number is drawn randomly and must be pinned by a log record),
    matching Boki's two log records per write so that measured gains come
    solely from read-side savings.  Setting it to ``False`` switches to the
    deterministic-version single-log variant the paper also describes.
    """

    align_write_logging_with_boki: bool = True
    preserve_consecutive_write_order: bool = False
    #: Section 7's recovery speed-up: asynchronously checkpoint the
    #: results of log-free reads so re-execution recovers them from the
    #: (cached) checkpoint stream instead of replaying version lookups.
    #: Off the critical path, so failure-free latency is unchanged.
    checkpoint_log_free_reads: bool = False


@dataclass(frozen=True)
class SystemConfig:
    """Top-level configuration bundle for building a platform."""

    seed: int = 0x5EED
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    gc: GCConfig = field(default_factory=GCConfig)
    storage: StorageSizeConfig = field(default_factory=StorageSizeConfig)
    failures: FailureConfig = field(default_factory=FailureConfig)
    faults: FaultConfig = field(default_factory=FaultConfig)
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    storage_chaos: StorageChaosConfig = field(
        default_factory=StorageChaosConfig
    )

    def validate(self) -> "SystemConfig":
        self.latency.validate()
        self.cluster.validate()
        self.gc.validate()
        self.storage.validate()
        self.failures.validate()
        self.faults.validate()
        self.resilience.validate()
        self.recovery.validate()
        self.storage_chaos.validate()
        return self

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    def with_gc_interval(self, interval_ms: float) -> "SystemConfig":
        return replace(self, gc=replace(self.gc, interval_ms=interval_ms))

    def with_value_bytes(self, value_bytes: int) -> "SystemConfig":
        return replace(
            self, storage=replace(self.storage, value_bytes=value_bytes)
        )

    def with_storage_plane(
        self,
        log_shards: Optional[int] = None,
        kv_partitions: Optional[int] = None,
        backend: Optional[str] = None,
        replication: Optional[int] = None,
        sequencer: Optional[str] = None,
        sequencer_batch: Optional[int] = None,
        sequencer_hold_ms: Optional[float] = None,
        sequencer_block: Optional[int] = None,
    ) -> "SystemConfig":
        """Select the storage-plane topology/backend (see
        :mod:`repro.storageplane`)."""
        overrides = {}
        if log_shards is not None:
            overrides["log_shards"] = log_shards
        if kv_partitions is not None:
            overrides["kv_partitions"] = kv_partitions
        if backend is not None:
            overrides["backend"] = backend
        if replication is not None:
            overrides["replication"] = replication
        if sequencer is not None:
            overrides["sequencer"] = sequencer
        if sequencer_batch is not None:
            overrides["sequencer_batch"] = sequencer_batch
        if sequencer_hold_ms is not None:
            overrides["sequencer_hold_ms"] = sequencer_hold_ms
        if sequencer_block is not None:
            overrides["sequencer_block"] = sequencer_block
        return replace(self, storage=replace(self.storage, **overrides))

    def with_storage_chaos(self, **overrides) -> "SystemConfig":
        """Arm storage-plane fault injection; override chaos knobs."""
        overrides.setdefault("enabled", True)
        return replace(
            self, storage_chaos=replace(self.storage_chaos, **overrides)
        )

    def with_fault_rate(self, rate: float, scope: str = "all",
                        gray_factor: float = 8.0) -> "SystemConfig":
        """Inject infrastructure faults at ``rate`` per operation."""
        return replace(
            self, faults=FaultConfig.uniform(rate, scope, gray_factor)
        )

    def with_resilience(self, **overrides) -> "SystemConfig":
        """Override retry/backoff/breaker policy knobs."""
        return replace(
            self, resilience=replace(self.resilience, **overrides)
        )

    def with_node_recovery(self, **overrides) -> "SystemConfig":
        """Enable node-failure detection/takeover; override lease knobs."""
        overrides.setdefault("enabled", True)
        return replace(
            self, recovery=replace(self.recovery, **overrides)
        )
