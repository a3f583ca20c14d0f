"""Service bindings between protocols and substrates.

Protocols never touch the shared log or the store directly; they go
through :class:`InstanceServices`, which

* applies the operation to the in-memory substrate,
* charges a calibrated latency sample to the invocation's cost trace
  (so direct mode reports realistic per-request latency and DES mode can
  convert the trace into simulated time),
* exposes crash checkpoints before and after every externally visible
  effect, which the failure injector uses to re-execute the SSF from any
  intermediate state,
* routes every substrate call through the resilience layer
  (:mod:`repro.faults`): seeded infrastructure faults (transient errors,
  timeouts, gray-failure latency inflation) are injected per operation,
  absorbed by bounded retries with exponential backoff — all charged to
  the cost trace, so fault amplification is visible in latency plots —
  and, when a service browns out, a circuit breaker enables degraded
  modes (cache-served log reads, dropped background appends), and
* counts operations per kind for the logging-overhead experiments.
"""

from __future__ import annotations

from typing import TYPE_CHECKING
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from ..config import (
    CONDITIONAL_WRITE_FACTOR,
    CONTROL_LOG_FACTOR,
    FUNCTION_COMPUTE_MS,
    MULTIVERSION_READ_FACTOR,
    MULTIVERSION_WRITE_FACTOR,
    OVERLAPPED_LOG_FACTOR,
    SystemConfig,
)
from ..errors import (
    FencedEpochError,
    ReproError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    StorageUnavailableError,
)
from ..faults import (
    BreakerState,
    CircuitBreaker,
    FAULT_GRAY,
    FAULT_TIMEOUT,
    FaultInjector,
    StorageFaultInjector,
)
from ..faults import retry
from ..observe import CAT_SERVICE, MetricsRegistry, Span, Tracer
from ..sharedlog import LogRecord, RecordCache
from ..simulation.latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    NormalDrawBatch,
)
from ..simulation.rng import IntegerDrawBatch, RngRegistry
from ..storageplane import StoragePlane, build_storage_plane

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

class Cost:
    """Cost-kind labels charged by service calls."""

    LOG_APPEND = "log_append"
    #: Write-intent records are overlapped with the DB write (Section 4.3
    #: notes write logging "can be overlapped with execution"); only a
    #: fraction of the append round trip lands on the critical path.
    LOG_APPEND_OVERLAPPED = "log_append_overlapped"
    #: Control records (init / invoke checkpoints): replicated fully in
    #: the background; only the sequencer round trip is latency-visible.
    LOG_APPEND_CONTROL = "log_append_control"
    #: Fully asynchronous background appends (Section 7's opportunistic
    #: read checkpoints): zero critical-path latency.
    LOG_APPEND_BACKGROUND = "log_append_background"
    LOG_READ = "log_read"
    DB_READ = "db_read"
    DB_READ_VERSION = "db_read_version"
    DB_WRITE = "db_write"
    DB_WRITE_VERSION = "db_write_version"
    DB_COND_WRITE = "db_cond_write"
    INVOKE_OVERHEAD = "invoke_overhead"
    COMPUTE = "compute"

    #: Resilience-layer charges (no latency model; amounts come from the
    #: retry policy).  They make fault amplification visible in traces.
    RETRY_BACKOFF = "retry_backoff"
    SERVICE_ERROR = "service_error"
    SERVICE_TIMEOUT = "service_timeout"
    #: A fenced append's fix: one flat leader-rediscovery round trip
    #: (refresh the cached metalog epoch), instead of backoff.
    LEADER_REDISCOVERY = "leader_rediscovery"

    #: Kinds that represent a logging operation (for log-overhead counts).
    LOGGING_KINDS = frozenset(
        {LOG_APPEND, LOG_APPEND_OVERLAPPED, LOG_APPEND_CONTROL,
         LOG_APPEND_BACKGROUND}
    )

    #: Charges produced by the fault/retry machinery rather than by a
    #: successful substrate round trip.
    RESILIENCE_KINDS = frozenset(
        {RETRY_BACKOFF, SERVICE_ERROR, SERVICE_TIMEOUT,
         LEADER_REDISCOVERY}
    )

    #: Kinds that hit the external store (for per-partition queueing).
    STORE_KINDS = frozenset(
        {DB_READ, DB_READ_VERSION, DB_WRITE, DB_WRITE_VERSION,
         DB_COND_WRITE}
    )

    #: Kinds that mutate their component — what a severed metalog↔shard
    #: link blocks (reads pass: any live replica can serve them).
    WRITE_KINDS = frozenset(
        {LOG_APPEND, LOG_APPEND_OVERLAPPED, LOG_APPEND_CONTROL,
         LOG_APPEND_BACKGROUND, DB_WRITE, DB_WRITE_VERSION,
         DB_COND_WRITE}
    )


class LatencyProvider:
    """Maps cost kinds to calibrated latency distributions."""

    def __init__(self, config: SystemConfig, cache: RecordCache):
        # ``cache`` is unread (``ServiceBackend.charge_log_read`` owns
        # the hit/miss choice); benchmarks/e2e passes it and is frozen.
        lat = config.latency
        db_read = LogNormalLatency(lat.db_read_median_ms, lat.db_read_p99_ms)
        db_write = LogNormalLatency(
            lat.db_write_median_ms, lat.db_write_p99_ms
        )
        log_append = LogNormalLatency(
            lat.log_append_median_ms, lat.log_append_p99_ms
        )
        self._models: Dict[str, LatencyModel] = {
            Cost.LOG_APPEND: log_append,
            Cost.LOG_APPEND_OVERLAPPED: log_append.scaled(
                OVERLAPPED_LOG_FACTOR
            ),
            Cost.LOG_APPEND_CONTROL: log_append.scaled(CONTROL_LOG_FACTOR),
            Cost.LOG_APPEND_BACKGROUND: ConstantLatency(0.0),
            Cost.DB_READ: db_read,
            Cost.DB_READ_VERSION: db_read.scaled(MULTIVERSION_READ_FACTOR),
            Cost.DB_WRITE: db_write,
            Cost.DB_WRITE_VERSION: db_write.scaled(
                MULTIVERSION_WRITE_FACTOR
            ),
            Cost.DB_COND_WRITE: db_write.scaled(CONDITIONAL_WRITE_FACTOR),
            Cost.INVOKE_OVERHEAD: LogNormalLatency(
                lat.invoke_overhead_median_ms, lat.invoke_overhead_p99_ms
            ),
            Cost.COMPUTE: ConstantLatency(FUNCTION_COMPUTE_MS),
        }
        self._log_read_hit = LogNormalLatency(
            lat.log_read_cached_median_ms, lat.log_read_cached_p99_ms
        )
        self._log_read_miss = LogNormalLatency(
            lat.log_read_miss_median_ms, lat.log_read_miss_p99_ms
        )

    def sample(self, kind: str, rng: np.random.Generator) -> float:
        return self._models[kind].sample(rng)

    def mean(self, kind: str) -> float:
        return self._models[kind].mean()

    def batched_samplers(self, rng, chunk: Optional[int] = None):
        """Zero-arg samplers drawing from one shared per-stream batch.

        Returns ``(samplers_by_kind, log_read_hit, log_read_miss)`` with
        every closure fed by a single :class:`NormalDrawBatch` over
        ``rng`` — refills consume the stream exactly as the scalar
        draws of :meth:`sample` would, so seeded results are unchanged.
        """
        batch = (NormalDrawBatch(rng) if chunk is None
                 else NormalDrawBatch(rng, chunk))
        samplers = {kind: model.batched_sampler(batch)
                    for kind, model in self._models.items()}
        return (samplers, self._log_read_hit.batched_sampler(batch),
                self._log_read_miss.batched_sampler(batch))


#: Where a cost-trace entry's operation landed: the log shard index for
#: log kinds and the KV partition index for store kinds
#: (:attr:`Cost.STORE_KINDS` tells the two apart), at every topology;
#: ``None`` for charges no storage component served (compute, invoke
#: overhead, retry backoff).
Placement = Optional[int]


class CostTrace:
    """Latency charges accumulated by one protocol-level operation.

    Entries are ``(kind, latency_ms, placement)`` triples; the DES
    drains them to advance simulated time and, when contention is
    modelled, queues each charge at the shard or partition station its
    placement names.
    """

    __slots__ = ("entries", "_total_ms")

    def __init__(self) -> None:
        self.entries: List[Any] = []
        #: Running sum, so ``total_ms`` is O(1) — the tracer's virtual
        #: clock reads it on every span boundary.
        self._total_ms = 0.0

    def charge(self, kind: str, latency_ms: float,
               placement: Placement = None) -> None:
        self.entries.append((kind, latency_ms, placement))
        self._total_ms += latency_ms

    def total_ms(self) -> float:
        return self._total_ms

    def drain(self) -> float:
        """Return the accumulated latency and reset the trace."""
        total = self._total_ms
        self.entries.clear()
        self._total_ms = 0.0
        return total


#: A crash checkpoint callback: receives a label like ``"log_append:pre"``
#: and may raise :class:`~repro.errors.CrashError` to kill the instance.
FaultHook = Callable[[str], None]


class ServiceBackend:
    """Platform-wide substrate bundle shared by all invocations."""

    def __init__(self, config: SystemConfig,
                 rng: Optional[RngRegistry] = None,
                 plane: Optional[StoragePlane] = None):
        self.config = config.validate()
        self.rng = rng if rng is not None else RngRegistry(config.seed)
        #: The storage plane; ``log``/``kv``/``mv`` are its substrates,
        #: kept as attributes for the many existing callers.  An
        #: injected ``plane`` bypasses the builder — the live
        #: compute plane's workers hand in an RPC proxy to the real
        #: plane served from the gateway process.
        self.plane: StoragePlane = (
            plane if plane is not None else build_storage_plane(config)
        )
        self.log = self.plane.log
        self.kv = self.plane.kv
        self.mv = self.plane.mv
        self.cache = RecordCache()
        self.latency = LatencyProvider(config, self.cache)
        #: Central metrics registry; every component below
        #: (and the DES platform on top) registers here, and
        #: ``RunResult.metrics`` is its snapshot.
        self.metrics = MetricsRegistry()
        self.counters = self.metrics.counters("ops")
        #: Attach a :class:`repro.observe.Tracer` to record span trees;
        #: ``None`` (the default) disables tracing with zero overhead.
        self.tracer: Optional[Tracer] = None
        #: Infrastructure-fault plan and resilience policy (platform-wide
        #: state: breakers outlive individual invocations).
        self.faults = FaultInjector(
            config.faults, self.rng.stream("infra-faults")
        )
        #: The injector's rates are frozen config: decided once here,
        #: read per attempt by ``InstanceServices``.
        self.faults_enabled = self.faults.enabled
        self.breakers: Dict[str, CircuitBreaker] = {
            service: CircuitBreaker(
                service,
                failure_threshold=config.resilience
                .breaker_failure_threshold,
                cooldown_ops=config.resilience.breaker_cooldown_ops,
            )
            for service in ("log", "store")
        }
        self._latency_rng = self.rng.stream("service-latency")
        #: The 64-bit ids ``random_hex`` hands out are two 32-bit draws,
        #: served from one batch over the stream.
        self._uuid_halves = IntegerDrawBatch(self.rng.stream("uuid"), 1 << 32)
        self._jitter_rng = self.rng.stream("retry-jitter")
        #: Per-kind samplers: the charge path draws through zero-arg
        #: closures instead of walking model objects per op.  They
        #: share one NormalDrawBatch (vectorised refills) and consume
        #: the latency stream exactly as the models' ``sample`` would.
        self._samplers, self._lr_hit, self._lr_miss = (
            self.latency.batched_samplers(self._latency_rng)
        )
        #: Placement: tag → log shard, key → KV partition, bound once
        #: (the plane's router; at one shard a constant 0).
        self.log_shard_of = self.plane.log_shard_of
        self.kv_partition_of = self.plane.kv_partition_of
        #: Storage-side chaos: per-component injection + link-partition
        #: schedule (None unless armed — chaos-free builds carry zero
        #: machinery), and the worker's cached metalog-epoch view that
        #: fenced appends invalidate.
        self.storage_faults: Optional[StorageFaultInjector] = None
        self.epoch_view = None
        chaos = config.storage_chaos
        if chaos.enabled:
            self.storage_faults = StorageFaultInjector(
                chaos, config.seed,
                self.plane.num_log_shards, self.plane.num_kv_partitions,
            )
            from ..storageplane.fencing import EpochView
            self.epoch_view = EpochView(self.log.metalog)
        # Snapshot probes: component state that *is* the metric.
        self.metrics.probe("record_cache", self._record_cache_stats)
        self.metrics.probe("storage_plane", self.plane.describe)

    def _record_cache_stats(self) -> Dict[str, Any]:
        return {
            "records": len(self.cache),
            "hits": self.cache.hits,
            "misses": self.cache.misses,
            "hit_ratio": self.cache.hit_ratio,
        }

    # -- helpers used by InstanceServices -------------------------------

    def charge(self, kind: str, trace: CostTrace, factor: float = 1.0,
               placement: Placement = None) -> float:
        ms = self._samplers[kind]() * factor
        # Inlined ``CostTrace.charge`` (same module): this is the single
        # hottest accounting call in the DES, so skip the dispatch.
        trace.entries.append((kind, ms, placement))
        trace._total_ms += ms
        counts = self.counters._counts
        counts[kind] = counts.get(kind, 0) + 1
        return ms

    def charge_log_read(self, seqnum: Optional[int], trace: CostTrace,
                        factor: float = 1.0,
                        placement: Placement = 0) -> float:
        # Log reads hit the function-node cache or pay a storage trip
        # (the lookup keeps the hit/miss stats).
        if seqnum is None or self.cache.lookup(seqnum, placement):
            ms = self._lr_hit() * factor
        else:
            ms = self._lr_miss() * factor
        trace.entries.append((Cost.LOG_READ, ms, placement))
        trace._total_ms += ms
        counts = self.counters._counts
        counts[Cost.LOG_READ] = counts.get(Cost.LOG_READ, 0) + 1
        return ms

    def charge_raw(self, kind: str, ms: float, trace: CostTrace) -> float:
        """Charge a policy-determined amount (backoff, timeout burn)."""
        trace.charge(kind, ms)
        self.counters.add(kind)
        return ms

    def breaker_trips(self) -> int:
        return sum(b.trips for b in self.breakers.values())

    def drop_node_cache(self, node_id: int, num_nodes: int) -> int:
        """A crashed function node loses its slice of the record cache.

        Called by the platform's node-crash event; replays that land on
        survivors then miss these records and pay the storage round trip
        (the recovery-cost asymmetry of Section 7 in wall-clock form).
        """
        evicted = self.cache.evict_partition(node_id, num_nodes)
        if evicted:
            self.counters.add("node_cache_records_lost", evicted)
        return evicted

    def drop_shard_cache(self, shard: int) -> int:
        """A crashed/promoted log shard invalidates its cached records.

        Called by the storage-chaos controller on shard-replica failover
        and R=1 shard loss: whatever the node caches hold for the shard
        may predate the new serving replica's epoch, so it must never be
        served again (the stale-cache regression test pins this).
        """
        evicted = self.cache.evict_shard(shard)
        if evicted:
            self.counters.add("shard_cache_records_lost", evicted)
        return evicted

    def refresh_log_epoch(self) -> int:
        """Leader rediscovery: re-read the metalog epoch after a fence."""
        if self.epoch_view is None:
            raise StorageUnavailableError(
                "no epoch view to refresh (storage chaos disabled)",
                service="log", op="rediscover",
            )
        return self.epoch_view.refresh()

    def random_hex(self) -> str:
        half = self._uuid_halves.next_int
        return f"{(half() << 32) | half():016x}"

    @property
    def value_bytes(self) -> int:
        return self.config.storage.value_bytes


_LOG_READ = Cost.LOG_READ

#: Service → what its placement indexes: the span argument name and the
#: storage fault injector's component kind.
_PLACEMENT_ARG = {"log": "shard", "store": "partition"}


class InstanceServices:
    """Per-attempt facade over the backend, with crash checkpoints.

    One is created for every execution attempt of an SSF instance; the
    cost trace and fault hook are attempt-local, while all state lives in
    the shared backend.  Every operation names its substrate call once,
    as ``(bound method, args)``, and hands it to :meth:`_call` — the
    only place a substrate is invoked, charged and traced.
    """

    def __init__(
        self,
        backend: ServiceBackend,
        fault_hook: Optional[FaultHook] = None,
    ):
        self.backend = backend
        self.trace = CostTrace()
        self._fault_hook = fault_hook
        #: Tracing context: the attempt span service-call spans nest
        #: under, and the virtual-time base the cost trace offsets.
        #: ``None`` span ⇒ tracing disabled for this attempt (the
        #: default): no op span is ever allocated.
        self._span: Optional[Span] = None
        self.span_base_ms = 0.0
        breakers = backend.breakers
        #: ``_call``'s failure-free condition, decided once when it
        #: holds for both services at the start of the attempt.  It
        #: cannot stop holding under the attempt's feet: breakers only
        #: move inside ``_call_resilient``, which nothing enters while
        #: it holds, and a storage injector is only ever disarmed.
        self._failure_free = (
            not backend.faults_enabled
            and backend.storage_faults is None
            and breakers["log"].state == BreakerState.CLOSED
            and breakers["store"].state == BreakerState.CLOSED
        )

    # -- tracing ----------------------------------------------------------

    def attach_span(self, span: Span, base_ms: float) -> None:
        """Nest this attempt's service-call spans under ``span``;
        ``base_ms`` anchors the cost-trace virtual clock."""
        self._span = span
        self.span_base_ms = base_ms

    @property
    def span(self) -> Optional[Span]:
        return self._span

    def now_ms(self) -> float:
        """Attempt-virtual time: base plus charged latency so far."""
        return self.span_base_ms + self.trace.total_ms()

    def _mark(self, op_span: Optional[Span], label: str,
              close: bool = False, **attrs: Any) -> None:
        """Annotate a traced op's span at now; ``close`` also ends it
        (an outcome that paid no round trip)."""
        if op_span is not None:
            now = self.now_ms()
            op_span.annotate(label, now, **attrs)
            if close:
                op_span.finish(now)

    def _breaker_outcome(self, breaker: CircuitBreaker, failed: bool,
                         op_span: Optional[Span]) -> None:
        """Record a breaker outcome, annotating state transitions."""
        before = breaker.state
        (breaker.record_failure if failed else breaker.record_success)()
        if breaker.state != before:
            self._mark(op_span, f"breaker:{breaker.state}",
                       service=breaker.name, trips=breaker.trips)

    # -- crash checkpoints ----------------------------------------------

    def checkpoint(self, label: str) -> None:
        if self._fault_hook is not None:
            self._fault_hook(label)

    # -- the one substrate call -------------------------------------------

    def _is_failure_free(self, service: str) -> bool:
        """Nothing can be injected into a call to ``service`` and nothing
        feeds its breaker: the call needs no resilience policy."""
        backend = self.backend
        return (not backend.faults_enabled
                and backend.storage_faults is None
                and backend.breakers[service].state == BreakerState.CLOSED)

    def _call(self, label: Optional[str], service: str, kind: str,
              placement: Placement, fn: Callable[..., Any], args: tuple,
              charge_error: bool = False, degradable: bool = False) -> Any:
        """Run the substrate call ``fn(*args)`` and account for it.

        ``label`` is the crash checkpoint passed first (an op with an
        externally visible effect passes its own ``:post`` checkpoint
        afterwards).  ``charge_error`` charges a substrate *exception*
        path (the service responded; the round trip was paid) before the
        exception propagates.  ``degradable`` allows the cache-served
        read tried while the log's breaker is open.  Per op the RNG
        order is fault draw → substrate call → latency draw.
        """
        if self._fault_hook is not None and label is not None:
            self._fault_hook(label)
        op_span = None
        if self._span is not None:
            attrs = {"service": service,
                     _PLACEMENT_ARG[service]: placement}
            op_span = self._span.child(
                kind, CAT_SERVICE, self.now_ms(), **attrs
            )
        factor: Optional[float] = 1.0
        note = None
        if self._failure_free or self._is_failure_free(service):
            try:
                result = fn(*args)
            except ReproError:
                self._substrate_error(op_span, kind, placement,
                                      1.0 if charge_error else None)
                raise
        else:
            result, factor, note = self._call_resilient(
                op_span, service, kind, placement, fn, args,
                charge_error, degradable,
            )
        # The one outcome recorder: charge the round trip scaled by
        # ``factor`` (``None``: dropped, nothing was paid), then close
        # the op span.  A log read is charged through the record cache,
        # for the seqnum it returned: the record's, a whole stream's
        # newest, or ``None`` when it found nothing.
        if factor is not None:
            if kind == _LOG_READ:
                record = result
                if record.__class__ is list:
                    record = record[-1] if record else None
                self.backend.charge_log_read(
                    record.seqnum if record is not None else None,
                    self.trace, factor, placement,
                )
            else:
                self.backend.charge(kind, self.trace, factor, placement)
        if op_span is not None:
            now = self.now_ms()
            if note is not None:
                op_span.annotate(note, now)
            op_span.finish(now)
        return result

    def _substrate_error(self, op_span: Optional[Span], kind: str,
                         placement: Placement,
                         factor: Optional[float]) -> None:
        """The substrate answered with an error (e.g. a lost conditional
        append): charge the round trip when the op pays for those, then
        close the op span; the caller re-raises."""
        if factor is not None:
            self.backend.charge(kind, self.trace, factor, placement)
        self._mark(op_span, "substrate-error", close=True)

    def _call_resilient(self, op_span: Optional[Span], service: str,
                        kind: str, placement: Placement,
                        fn: Callable[..., Any], args: tuple,
                        charge_error: bool, degradable: bool) -> tuple:
        """``_call`` under the resilience policy: returns ``(result,
        latency factor, span note)`` for ``_call`` to record.

        ``fn`` only runs on healthy or gray draws, so injected faults
        are request omissions and can never duplicate an effect.
        Best-effort work (opportunistic background appends) is dropped —
        ``(None, None, note)`` — instead of retried.
        """
        backend = self.backend
        breaker = backend.breakers[service]
        resilience = backend.config.resilience
        droppable = kind == Cost.LOG_APPEND_BACKGROUND
        if breaker.consult():
            if droppable:
                backend.counters.add("background_appends_dropped")
                return None, None, "dropped-by-breaker"
            if degradable and resilience.degraded_log_reads:
                # Degraded mode: serve the read node-locally when the
                # record is resident in the function-node cache.
                record = fn(*args)
                if (record is not None
                        and backend.cache.contains(record.seqnum)):
                    backend.counters.add("degraded_log_reads")
                    return record, 1.0, "degraded-read"

        storage_faults = backend.storage_faults
        # Appends carry the worker's cached metalog epoch; it is read
        # per attempt, so a retry after leader rediscovery carries the
        # refreshed one.
        view = backend.epoch_view
        stamped = view is not None and kind in Cost.LOGGING_KINDS
        is_write = kind in Cost.WRITE_KINDS
        spent_ms = 0.0
        attempt = 0
        rediscoveries = 0
        while True:
            attempt += 1
            decision = backend.faults.draw(service, kind)
            if (decision.kind is None and storage_faults is not None):
                # Storage-side injection: the component this op routes
                # to (shard/partition rates + the link schedule) gets
                # its own draw, from its own stream.
                decision = storage_faults.draw(
                    _PLACEMENT_ARG[service], placement, self.now_ms(),
                    is_write,
                )
            if decision.kind is not None:
                self._mark(op_span, f"fault:{decision.kind}",
                           attempt=attempt)
            fault_kind = decision.kind if decision.omitted else None
            if fault_kind is None:
                try:
                    if stamped:
                        result = fn(*args, epoch=view.epoch)
                    else:
                        result = fn(*args)
                except FencedEpochError:
                    # A failover fenced our stale epoch — the append
                    # never applied.  The fence names its own fix:
                    # refresh the cached leader epoch at a flat
                    # rediscovery cost and retry immediately (no
                    # backoff, no attempt consumed), bounded against a
                    # flapping leader.
                    self._breaker_outcome(breaker, False, op_span)
                    rediscoveries += 1
                    backend.charge_raw(
                        Cost.LEADER_REDISCOVERY, retry.REDISCOVERY_MS,
                        self.trace,
                    )
                    backend.counters.add("epoch_rediscoveries")
                    spent_ms += retry.REDISCOVERY_MS
                    self._mark(op_span, "fenced-epoch",
                               rediscoveries=rediscoveries)
                    if rediscoveries > retry.MAX_REDISCOVERIES:
                        self._mark(op_span, "leader-flapping", close=True)
                        raise ServiceUnavailableError(
                            f"{service} {kind} fenced "
                            f"{rediscoveries} times: leader flapping",
                            service=service, op=kind,
                        )
                    try:
                        backend.refresh_log_epoch()
                    except StorageUnavailableError:
                        # No leader yet: ride the ordinary retry loop.
                        fault_kind = FAULT_TIMEOUT
                    else:
                        attempt -= 1
                        continue
                except StorageUnavailableError:
                    # A storage component is down (crashed sequencer,
                    # quorum-less shard, lost partition).  Rejected
                    # before any effect, so backoff-and-retry is
                    # duplicate-free; count it against this op's retry
                    # budget like an injected timeout.
                    backend.counters.add("storage_unavailable_ops")
                    fault_kind = FAULT_TIMEOUT
                except ReproError:
                    # The substrate responded (e.g. a lost conditional
                    # append): a service success, not a fault.
                    self._breaker_outcome(breaker, False, op_span)
                    self._substrate_error(
                        op_span, kind, placement,
                        decision.latency_factor if charge_error else None,
                    )
                    raise
                if fault_kind is None:
                    # Gray success: slow node.  Feed the brown-out
                    # detector but return the (inflated) result.
                    self._breaker_outcome(
                        breaker, decision.kind == FAULT_GRAY, op_span
                    )
                    return result, decision.latency_factor, None

            # Omission fault (injected, or the storage plane rejected
            # the request before effect): nothing applied.
            self._breaker_outcome(breaker, True, op_span)
            if droppable:
                backend.counters.add("background_appends_dropped")
                return None, None, "dropped-under-fault"
            fault_ms = retry.fault_cost_ms(resilience, fault_kind)
            fault_label = (
                Cost.SERVICE_TIMEOUT if fault_kind == FAULT_TIMEOUT
                else Cost.SERVICE_ERROR
            )
            backend.charge_raw(fault_label, fault_ms, self.trace)
            spent_ms += fault_ms
            if spent_ms > resilience.op_deadline_ms:
                self._mark(op_span, "deadline-exceeded", close=True,
                           attempts=attempt)
                raise ServiceTimeoutError(
                    f"{service} {kind} blew its {resilience.op_deadline_ms}ms "
                    f"deadline after {attempt} attempts",
                    service=service, op=kind,
                )
            if attempt >= resilience.max_attempts:
                self._mark(op_span, "retries-exhausted", close=True,
                           attempts=attempt)
                raise ServiceUnavailableError(
                    f"{service} {kind} failed all {attempt} attempts",
                    service=service, op=kind,
                )
            backoff_ms = retry.backoff_ms(
                resilience, attempt, backend._jitter_rng
            )
            backend.charge_raw(Cost.RETRY_BACKOFF, backoff_ms, self.trace)
            backend.counters.add("service_retries")
            spent_ms += backoff_ms
            self._mark(op_span, "retry", attempt=attempt,
                       backoff_ms=backoff_ms)

    # -- log operations ---------------------------------------------------

    def log_append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        payload_bytes: int = 0,
        synchronous: bool = True,
        control: bool = False,
        background: bool = False,
    ) -> int:
        if background:
            kind = Cost.LOG_APPEND_BACKGROUND
        elif control:
            kind = Cost.LOG_APPEND_CONTROL
        else:
            kind = (Cost.LOG_APPEND if synchronous
                    else Cost.LOG_APPEND_OVERLAPPED)
        backend = self.backend
        placement = backend.log_shard_of(tags[0]) if tags else 0
        seqnum = self._call(
            "log_append:pre", "log", kind, placement,
            backend.log.append, (tags, data, payload_bytes),
        )
        if seqnum is None:
            # Best-effort append dropped under faults/brown-out; callers
            # of background appends ignore the seqnum by contract.
            seqnum = -1
        else:
            backend.cache.insert(seqnum, placement)
        self.checkpoint("log_append:post")
        return seqnum

    def log_cond_append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        cond_tag: str,
        cond_pos: int,
        payload_bytes: int = 0,
        synchronous: bool = True,
        control: bool = False,
    ) -> int:
        """Conditional append; raises :class:`ConditionalAppendError` with
        the winning record's seqnum when a peer instance got there first."""
        if control:
            kind = Cost.LOG_APPEND_CONTROL
        else:
            kind = (Cost.LOG_APPEND if synchronous
                    else Cost.LOG_APPEND_OVERLAPPED)
        backend = self.backend
        placement = backend.log_shard_of(tags[0]) if tags else 0
        # A lost race still pays for the round trip (charge_error).
        seqnum = self._call(
            "log_cond_append:pre", "log", kind, placement,
            backend.log.cond_append,
            (tags, data, cond_tag, cond_pos, payload_bytes),
            charge_error=True,
        )
        backend.cache.insert(seqnum, placement)
        self.checkpoint("log_cond_append:post")
        return seqnum

    def log_read_prev(self, tag: str, max_seqnum: int) -> Optional[LogRecord]:
        backend = self.backend
        return self._call(
            "log_read_prev:pre", "log", Cost.LOG_READ,
            backend.log_shard_of(tag),
            backend.log.read_prev, (tag, max_seqnum), degradable=True,
        )

    def log_read_next(self, tag: str, min_seqnum: int) -> Optional[LogRecord]:
        backend = self.backend
        return self._call(
            "log_read_next:pre", "log", Cost.LOG_READ,
            backend.log_shard_of(tag),
            backend.log.read_next, (tag, min_seqnum), degradable=True,
        )

    def log_read_stream(self, tag: str) -> List[LogRecord]:
        """Fetch a whole sub-stream (``getStepLogs`` in the pseudocode)."""
        backend = self.backend
        return self._call(
            "log_read_stream:pre", "log", Cost.LOG_READ,
            backend.log_shard_of(tag),
            backend.log.read_stream, (tag,),
        )

    def log_record_at(self, tag: str, offset: int) -> LogRecord:
        """Fetch the record at a stream offset (post-conflict recovery)."""
        backend = self.backend
        return self._call(
            None, "log", Cost.LOG_READ, backend.log_shard_of(tag),
            backend.log._record_at_offset, (tag, offset),
        )

    @property
    def log_tail(self) -> int:
        return self.backend.log.tail_seqnum

    # -- database operations ----------------------------------------------

    def db_read(self, key: str, default: Any = None) -> Any:
        backend = self.backend
        return self._call(
            "db_read:pre", "store", Cost.DB_READ,
            backend.kv_partition_of(key),
            backend.kv.get_optional, (key, default),
        )

    def db_read_with_version(self, key: str) -> Any:
        backend = self.backend
        return self._call(
            "db_read:pre", "store", Cost.DB_READ,
            backend.kv_partition_of(key),
            backend.kv.get_with_version, (key,),
        )

    def db_read_version(self, key: str, version_number: str) -> Any:
        backend = self.backend
        return self._call(
            "db_read_version:pre", "store", Cost.DB_READ_VERSION,
            backend.kv_partition_of(key),
            backend.mv.read_version, (key, version_number),
        )

    def db_write(self, key: str, value: Any) -> None:
        backend = self.backend
        self._call(
            "db_write:pre", "store", Cost.DB_WRITE,
            backend.kv_partition_of(key),
            backend.kv.put, (key, value, backend.value_bytes),
        )
        self.checkpoint("db_write:post")

    def db_write_version(
        self, key: str, version_number: str, value: Any
    ) -> None:
        backend = self.backend
        self._call(
            "db_write_version:pre", "store", Cost.DB_WRITE_VERSION,
            backend.kv_partition_of(key),
            backend.mv.write_version,
            (key, version_number, value, backend.value_bytes),
        )
        self.checkpoint("db_write_version:post")

    def db_cond_write(self, key: str, value: Any, version: Any) -> bool:
        """Conditional update: applies iff stored VERSION < ``version``."""
        backend = self.backend
        applied = self._call(
            "db_cond_write:pre", "store", Cost.DB_COND_WRITE,
            backend.kv_partition_of(key),
            backend.kv.conditional_put,
            (key, value, version, backend.value_bytes),
        )
        self.checkpoint("db_cond_write:post")
        return applied

    # -- misc ---------------------------------------------------------------

    def charge_invoke_overhead(self) -> None:
        self.backend.charge(Cost.INVOKE_OVERHEAD, self.trace)

    def charge_compute(self) -> None:
        self.backend.charge(Cost.COMPUTE, self.trace)

    def random_hex(self) -> str:
        return self.backend.random_hex()

    @property
    def meta_bytes(self) -> int:
        return self.backend.config.storage.meta_bytes

    @property
    def value_bytes(self) -> int:
        return self.backend.value_bytes
