"""Discrete-event simulation platform for the end-to-end experiments.

Wraps a :class:`~repro.runtime.local.LocalRuntime` in a DES: requests
arrive open-loop (Poisson), each invocation occupies one function-node
worker slot for its lifetime, and every protocol-level operation advances
simulated time by the latency its service calls accumulated.  This yields
the latency-vs-throughput, storage-over-time, and switching-delay
behaviour of the paper's testbed (Sections 6.2-6.4) from the same protocol
implementations the unit tests exercise.

Fidelity notes (documented substitutions):

* a child SSF invoked via ``ctx.invoke`` executes synchronously at its
  parent's current simulation instant; its latency then advances the
  parent's clock.  Parent-blocking time is modelled exactly; the child's
  *internal* interleaving with other invocations is not.
* a ``ctx.trigger`` callee arrives as an invocation of its own at the
  parent's completion instant; it is platform work, so it is left out of
  ``RunResult.completed`` and the latency statistics.
* queueing happens at the worker pool; log/store latencies are sampled
  i.i.d. from their calibrated distributions (an open-service model).

Node failures (``config.recovery``): invocations are dispatched to
per-node worker slots; :meth:`SimPlatform.crash_node` kills a node —
interrupting every in-flight invocation process on it (they become
*orphans*), dropping the node's slice of the record cache, and wiping
its worker slots.  A :class:`~repro.recovery.lease.LeaseManager` turns
the crash into a detection event after the configured lease expires, and
the :class:`~repro.recovery.coordinator.RecoveryCoordinator` re-dispatches
orphans to surviving nodes, where protocol replay finishes them.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..compute.base import ComputePlane, RunResult
from ..config import SystemConfig
from ..errors import CrashError
from ..observe import (
    CAT_INVOCATION,
    CAT_QUEUE,
    LatencyBreakdown,
    Span,
    Tracer,
)
from ..recovery import LeaseManager, Orphan, RecoveryCoordinator
from ..runtime.local import LocalRuntime, LostAttempt
from ..runtime.services import Cost, InstanceServices
from ..simulation.kernel import Interrupt, Simulator
from ..simulation.metrics import (
    LatencyRecorder,
    TimeSeries,
    TimeWeightedGauge,
)
from ..simulation.resources import (
    NodeWorkerPool,
    SequencerBatchStation,
    SequencerLeaseStation,
)
from ..workloads.base import Request, Workload


class SimPlatform(ComputePlane):
    """One simulated deployment running one workload under one protocol
    (the ``sim`` compute backend)."""

    name = "sim"

    def __init__(
        self,
        workload: Workload,
        protocol: str,
        config: Optional[SystemConfig] = None,
        enable_switching: bool = False,
        tracer: Optional[Tracer] = None,
    ):
        self.config = (config if config is not None
                       else SystemConfig()).validate()
        self.sim = Simulator()
        self.runtime = LocalRuntime(
            self.config, protocol=protocol,
            enable_switching=enable_switching,
        )
        if enable_switching and self.runtime.switch_manager is not None:
            self.runtime.switch_manager.now_fn = lambda: self.sim.now
        self.workload = workload
        workload.register(self.runtime)
        workload.populate(self.runtime)

        backend = self.runtime.backend
        self.tracer = tracer
        backend.tracer = tracer
        # Child invocations (ctx.invoke) run synchronously through the
        # direct-mode runtime; anchor their trace timestamps at the
        # parent's simulated instant.
        self.runtime.now_fn = lambda: self.sim.now
        self.workers = NodeWorkerPool(
            self.sim,
            self.config.cluster.function_nodes,
            self.config.cluster.workers_per_node,
            "workers",
        )
        self._request_rng = backend.rng.stream("requests")
        self._arrival_rng = backend.rng.stream("arrivals")

        metrics = backend.metrics
        self.latencies = metrics.register(
            "request_latency", LatencyRecorder("request-latency")
        )
        self.latency_series = metrics.register(
            "latency_over_time", TimeSeries("latency-over-time")
        )
        self.breakdown = LatencyBreakdown(protocol)
        self.crashed_attempts = 0
        self.faulted_attempts = 0
        #: Instance ids of unfinished trigger-edge callees (Section 4.4):
        #: platform work rather than client requests, also after an
        #: orphan takeover re-dispatches them.
        self._triggered: set = set()
        self._warmup_ms = 0.0

        # -- node-failure machinery ------------------------------------
        #: Per node: instance_id -> in-flight invocation Process, i.e.
        #: the gateway's dispatch table (mirrors init records without a
        #: matching finish).
        self._inflight: List[Dict[str, Any]] = [
            {} for _ in range(self.workers.num_nodes)
        ]
        self._crashed_at: Dict[int, float] = {}
        self.node_crashes = 0
        self.orphaned_invocations = 0
        self.detection_latency = metrics.register(
            "failure_detection_latency",
            LatencyRecorder("failure-detection"),
        )
        #: Optional ``callback(request, latency_ms)`` fired at each
        #: completion — failover audits use it to build ground truth.
        self.on_request_complete: Optional[
            Callable[[Request, float], None]
        ] = None
        self.lease: Optional[LeaseManager] = None
        self.coordinator: Optional[RecoveryCoordinator] = None
        if self.config.recovery.enabled:
            self.lease = LeaseManager(
                self.sim,
                self.workers.num_nodes,
                self.config.recovery,
                self.workers.is_alive,
            )
            self.coordinator = RecoveryCoordinator(
                self.sim, self.runtime.tracker, self._redispatch_orphan,
                tracer=tracer,
            )
            metrics.register(
                "takeover_latency", self.coordinator.takeover_latency
            )
            self.lease.on_failure(self._node_declared_dead)
        self.time_by_kind: Dict[str, float] = {}
        # Logging-layer contention model (optional): analytic FIFO
        # bookkeeping for the sequencer and the storage shards.  Works
        # because invocations drain their traces in nondecreasing
        # simulation-time order.  With a labelled (sharded) plane each
        # append queues at *its record's* shard station, so hot shards
        # saturate individually; the unlabelled plane keeps the seed's
        # round-robin spread over ``cluster.storage_nodes``.
        plane = backend.plane
        self._plane_labelled = plane.labelled
        self._seq_next_free = 0.0
        # Sequencing strategy (config.storage.sequencer): the monolith
        # arithmetic stays inlined in ``_drain``; batched / leased
        # strategies visit a stateful station instead.
        storage_cfg = self.config.storage
        cluster_cfg = self.config.cluster
        self._seq_station = None
        if storage_cfg.sequencer == "batched":
            self._seq_station = SequencerBatchStation(
                cluster_cfg.sequencer_service_ms,
                storage_cfg.sequencer_hold_ms,
                storage_cfg.sequencer_batch,
            )
        elif storage_cfg.sequencer == "leased-ranges":
            self._seq_station = SequencerLeaseStation(
                cluster_cfg.sequencer_service_ms,
                storage_cfg.sequencer_block,
            )
        self._seq_visits = 0
        num_stations = (plane.num_log_shards if plane.labelled
                        else self.config.cluster.storage_nodes)
        self._shard_next_free = [0.0] * num_stations
        self._shard_cursor = 0
        self.log_wait_ms_total = 0.0
        # Store-partition stations (optional, labelled planes only).
        num_store_stations = (plane.num_kv_partitions if plane.labelled
                              else 1)
        self._store_next_free = [0.0] * num_store_stations
        self.store_wait_ms_total = 0.0

        # Storage accounting is pulled: the substrates only count, and
        # ``_sample_storage`` reads the two totals into these gauges.
        self._log_bytes = backend.log.storage_bytes
        self._db_bytes = backend.kv.storage_bytes
        self.log_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("log-bytes", 0.0, self._log_bytes()),
            store="log",
        )
        self.db_gauge = metrics.register(
            "storage_bytes",
            TimeWeightedGauge("db-bytes", 0.0, self._db_bytes()),
            store="db",
        )
        # Per-shard / per-partition bytes (sharded planes only, so the
        # default topology's metric set is unchanged): current value,
        # read when the snapshot is taken.
        placements = (
            ("log", "shard", backend.log.shard_bytes,
             plane.num_log_shards),
            ("db", "partition", backend.kv.partition_bytes,
             plane.num_kv_partitions),
        ) if plane.labelled else ()
        for store, label, read, count in placements:
            for i in range(count):
                metrics.probe(
                    "storage_bytes",
                    lambda read=read, i=i: {"type": "gauge",
                                            "value": float(read(i))},
                    store=store, **{label: i},
                )

    def _sample_storage(self) -> None:
        """Feed the storage gauges the substrates' byte counters.
        Called at every instant storage can change, before the clock
        leaves it: after each step of an invocation (the top of
        ``_drain``, and after the step that finishes it), after a GC
        pass, after a scheduled action, and before the result is built."""
        now = self.sim.now
        self.log_gauge.observe(self._log_bytes(), now)
        self.db_gauge.observe(self._db_bytes(), now)

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def _arrival_process(self, rate_per_s: float, duration_ms: float):
        mean_gap_ms = 1000.0 / rate_per_s
        while True:
            gap = float(self._arrival_rng.exponential(mean_gap_ms))
            yield gap
            if self.sim.now >= duration_ms:
                return
            request = self.workload.next_request(self._request_rng)
            self._spawn_invocation(request, self.sim.now)

    def _spawn_invocation(
        self,
        request: Request,
        arrival_ms: float,
        instance_id: Optional[str] = None,
        first_attempt: int = 1,
        redispatched: bool = False,
    ):
        """Start an invocation process.  ``instance_id`` pre-assigns the
        id (a trigger edge's logged callee id); ``redispatched`` marks
        an orphan takeover, which resumes an invocation that is already
        tracked at ``first_attempt``."""
        # The generator needs a handle on its own Process so it can file
        # itself in the dispatch table; the box is filled before the
        # body's first step runs (processes start on the next tick).
        box: Dict[str, Any] = {}
        gen = self._invocation_process(
            request, arrival_ms, box, instance_id, first_attempt,
            redispatched,
        )
        box["process"] = self.sim.process(
            gen, name=f"inv-{request.func_name}"
        )
        return box["process"]

    def _invocation_process(
        self,
        request: Request,
        arrival_ms: float,
        box: Dict[str, Any],
        instance_id: Optional[str] = None,
        first_attempt: int = 1,
        redispatched: bool = False,
    ):
        """The DES driver of :meth:`LocalRuntime.run_instance`: arrival
        tracking, the worker queue, simulated time for every pause of
        the lifecycle, node-crash orphaning and completion recording."""
        runtime = self.runtime
        if instance_id is None:
            instance_id = runtime.new_instance_id()
        if not redispatched:
            # The invocation exists (and is tracked) from arrival: the
            # switch manager and the GC must conservatively wait for
            # requests that were dispatched before a BEGIN record even
            # if they are still queued for a worker — this is what makes
            # switching away from a backlogged phase slower (Figure 14).
            runtime.tracker.start(
                instance_id, runtime.backend.log.next_seqnum
            )
        # Per-request stage vector ({kind_or_segment: ms}); by
        # construction every simulated millisecond between arrival and
        # completion lands in exactly one entry, so the vector sums to
        # the end-to-end latency.
        stages: Dict[str, float] = {}
        takeover_gap = self.sim.now - arrival_ms
        if takeover_gap > 0:
            # Orphan re-dispatch: time since the original arrival (the
            # lost dispatch, detection, and coordination) is recovery.
            stages["takeover_gap"] = takeover_gap
        tracer = self.tracer
        root: Optional[Span] = None
        queue_span: Optional[Span] = None
        if tracer is not None:
            root = tracer.start_span(
                f"invoke:{request.func_name}", CAT_INVOCATION,
                arrival_ms if not redispatched else self.sim.now,
                trace_id=instance_id, func=request.func_name,
                redispatched=redispatched,
            )
            queue_span = root.child(
                "worker-queue", CAT_QUEUE, self.sim.now,
            )
        queued_at = self.sim.now
        grant = yield self.workers.request()
        stages["queue_wait"] = (
            stages.get("queue_wait", 0.0) + self.sim.now - queued_at
        )
        if queue_span is not None:
            queue_span.finish(self.sim.now)
        if root is not None:
            root.annotate("worker-granted", self.sim.now,
                          node=grant.node_id)
        self._inflight[grant.node_id][instance_id] = box["process"]
        sim = self.sim
        drain = self._drain
        lost_attempts = 0
        pause: Any = None
        resume = runtime.run_instance(
            request.func_name, request.input, instance_id,
            lambda: sim.now, True, root, first_attempt, node=grant.node_id,
        ).send
        try:
            try:
                pause = resume(None)
                while True:
                    if pause.__class__ is LostAttempt:
                        lost_attempts += 1
                        if isinstance(pause.cause, CrashError):
                            self.crashed_attempts += 1
                        else:
                            self.faulted_attempts += 1
                        stages["failure_detection"] = (
                            stages.get("failure_detection", 0.0)
                            + pause.detection_ms
                        )
                        elapsed = drain(pause.svc, stages)
                        lost_at = sim.now + elapsed
                        yield elapsed + pause.detection_ms
                        pause = resume(lost_at)
                    else:
                        yield drain(pause, stages)
                        # The trace was drained into simulated time:
                        # re-anchor the attempt's virtual clock.
                        pause.span_base_ms = sim.now
                        pause = resume(None)
            except StopIteration as stop:
                pending_triggers = stop.value[2]
                # The last step is not drained, and finishing can close
                # a protocol switch (an END record lands in the log).
                self._sample_storage()
            latency = self.sim.now - arrival_ms
            # A triggered callee occupies a worker and is tracked like
            # any invocation, but latency statistics and ``completed``
            # describe what the open-loop client sees, so only the
            # completion callback (the audits' ground truth) sees it.
            if instance_id in self._triggered:
                self._triggered.discard(instance_id)
            else:
                if arrival_ms >= self._warmup_ms:
                    self.latencies.record(latency)
                    self.breakdown.record(stages)
                self.latency_series.record(self.sim.now, latency)
            if self.on_request_complete is not None:
                self.on_request_complete(request, latency)
            # Trigger edges (Section 4.4): each callee arrives now,
            # strictly after every effect of this invocation, under the
            # id the parent logged for it.
            for callee_id, func_name, callee_input in pending_triggers:
                self._triggered.add(callee_id)
                self._spawn_invocation(
                    Request(func_name, callee_input), self.sim.now,
                    instance_id=callee_id,
                )
        except Interrupt:
            # Node crash while executing: the invocation is stranded on
            # the dead node.  The interrupted attempt counts as lost
            # (like an instance crash); takeover resumes at the next.
            self.orphaned_invocations += 1
            svc = pause.svc if pause.__class__ is LostAttempt else pause
            attempt_span = svc.span if svc is not None else None
            if attempt_span is not None and not attempt_span.finished:
                attempt_span.annotate("node-crash", self.sim.now,
                                      node=grant.node_id)
                attempt_span.finish(self.sim.now)
            if root is not None:
                root.annotate("orphaned", self.sim.now,
                              node=grant.node_id)
                root.finish(self.sim.now)
            orphan = Orphan(
                instance_id=instance_id,
                request=request,
                arrival_ms=arrival_ms,
                next_attempt=first_attempt + lost_attempts + 1,
                node_id=grant.node_id,
                orphaned_at_ms=self.sim.now,
            )
            if self.coordinator is not None:
                self.coordinator.add_orphan(orphan)
            else:
                # No recovery configured: the orphan is still pinned in
                # the tracker so GC stays conservative, but nobody will
                # re-dispatch it.
                runtime.tracker.mark_orphaned(instance_id)
            return
        finally:
            self._inflight[grant.node_id].pop(instance_id, None)
            self.workers.release(grant)

    def _redispatch_orphan(self, orphan: Orphan) -> None:
        self._spawn_invocation(
            orphan.request,
            orphan.arrival_ms,
            instance_id=orphan.instance_id,
            first_attempt=orphan.next_attempt,
            redispatched=True,
        )

    # ------------------------------------------------------------------
    # Node failures
    # ------------------------------------------------------------------

    def crash_node(
        self,
        node_id: int,
        restart_after_ms: Optional[float] = None,
    ) -> None:
        """Kill function node ``node_id`` at the current instant.

        Every in-flight invocation process on the node is interrupted
        (→ orphaned), the node's slice of the record cache is dropped,
        and its worker slots are wiped.  If restarts are enabled the
        node comes back after ``restart_after_ms`` (default: the
        configured ``restart_delay_ms``).
        """
        if not self.workers.is_alive(node_id):
            return
        self.node_crashes += 1
        self._crashed_at[node_id] = self.sim.now
        if self.tracer is not None:
            self.tracer.instant(
                "node-crash", self.sim.now, node=node_id,
                in_flight=len(self._inflight[node_id]),
            )
        # Interrupt handlers pop themselves from the table via their
        # ``finally``; iterate over a snapshot.
        for process in list(self._inflight[node_id].values()):
            process.interrupt(cause=f"node-{node_id}-crash")
        self.workers.crash(node_id)
        self.runtime.backend.drop_node_cache(
            node_id, self.workers.num_nodes
        )
        delay = (restart_after_ms if restart_after_ms is not None
                 else self.config.recovery.restart_delay_ms)
        self.at(self.sim.now + delay, lambda: self.restart_node(node_id))

    def restart_node(self, node_id: int) -> None:
        """Bring a crashed node back with empty workers and a cold cache."""
        if self.workers.is_alive(node_id):
            return
        self._crashed_at.pop(node_id, None)
        if self.tracer is not None:
            self.tracer.instant("node-restart", self.sim.now,
                                node=node_id)
        self.workers.restart(node_id)
        if self.coordinator is not None:
            # A node restarting before its lease expired recovers its
            # own orphans by scanning the log (Section 4.5).
            self.coordinator.node_restarted(node_id)

    def schedule_node_crash(
        self,
        at_ms: float,
        node_id: int = 0,
        restart_after_ms: Optional[float] = None,
    ) -> None:
        """Arrange for ``node_id`` to crash at simulated time ``at_ms``."""
        self.at(at_ms, lambda: self.crash_node(node_id, restart_after_ms))

    def _node_declared_dead(self, node_id: int, detected_at_ms: float
                            ) -> None:
        crashed_at = self._crashed_at.get(node_id)
        if crashed_at is not None:
            self.detection_latency.record(detected_at_ms - crashed_at)
        if self.tracer is not None:
            self.tracer.instant(
                "node-declared-dead", detected_at_ms, node=node_id,
                detection_ms=(detected_at_ms - crashed_at
                              if crashed_at is not None else None),
            )
        if self.coordinator is not None:
            self.coordinator.node_failed(node_id, detected_at_ms)

    def _drain(self, svc: InstanceServices,
               stages: Dict[str, float]) -> float:
        """Account the trace per cost kind, then drain it.

        With ``model_log_contention`` enabled, every append also queues
        at the sequencer and a storage shard; the waits extend the
        invocation's simulated time and are tallied separately.
        ``stages`` (the per-request breakdown vector) receives the same
        per-kind milliseconds plus the contention wait."""
        self._sample_storage()
        cluster = self.config.cluster
        # Appends of one drained operation are treated as arriving at the
        # current instant; drains happen in global nondecreasing time
        # order, which keeps the FIFO bookkeeping exact at op granularity.
        now = self.sim.now
        extra_wait = 0.0
        store_wait_total = 0.0
        time_by_kind = self.time_by_kind
        model_log = cluster.model_log_contention
        model_store = cluster.model_store_contention
        logging_kinds = Cost.LOGGING_KINDS
        store_kinds = Cost.STORE_KINDS
        # The FIFO bookkeeping below is the hottest loop in the harness;
        # every station cursor lives in a local for the duration of the
        # drain and is written back once at the end.
        seq_next_free = self._seq_next_free
        seq_service = cluster.sequencer_service_ms
        seq_station = self._seq_station
        seq_visits = self._seq_visits
        shard_next_free = self._shard_next_free
        num_shards = len(shard_next_free)
        shard_cursor = self._shard_cursor
        shard_service = cluster.log_shard_service_ms
        store_next_free = self._store_next_free
        store_service = cluster.store_partition_service_ms
        log_wait_ms_total = self.log_wait_ms_total
        store_wait_ms_total = self.store_wait_ms_total
        for kind, ms, placement in svc.trace.entries:
            # try/except beats .get here: the miss happens once per kind
            # per run, and 3.11 makes the non-raising path free.
            try:
                time_by_kind[kind] += ms
            except KeyError:
                time_by_kind[kind] = ms
            stages[kind] = stages.get(kind, 0.0) + ms
            if model_log and kind in logging_kinds:
                if seq_station is None:
                    wait = seq_next_free - now
                    if wait < 0.0:
                        wait = 0.0
                    seq_next_free = now + wait + seq_service
                else:
                    wait = seq_station.visit(now)
                seq_visits += 1
                if placement is not None and placement[0] == "shard":
                    # Sharded plane: queue where the record lives, so a
                    # hot shard saturates while its peers stay idle.
                    shard = placement[1]
                else:
                    # Unlabelled plane: the seed's round-robin spread
                    # over the storage nodes.
                    shard = shard_cursor % num_shards
                    shard_cursor += 1
                shard_start = now + wait
                shard_wait = shard_next_free[shard] - shard_start
                if shard_wait < 0.0:
                    shard_wait = 0.0
                shard_next_free[shard] = (
                    shard_start + shard_wait + shard_service
                )
                extra_wait += wait + shard_wait
                log_wait_ms_total += wait + shard_wait
            elif model_store and kind in store_kinds:
                partition = (
                    placement[1]
                    if placement is not None and placement[0] == "partition"
                    else 0
                )
                store_wait = store_next_free[partition] - now
                if store_wait < 0.0:
                    store_wait = 0.0
                store_next_free[partition] = (
                    now + store_wait + store_service
                )
                extra_wait += store_wait
                store_wait_total += store_wait
                store_wait_ms_total += store_wait
        self._seq_next_free = seq_next_free
        self._seq_visits = seq_visits
        self._shard_cursor = shard_cursor
        self.log_wait_ms_total = log_wait_ms_total
        self.store_wait_ms_total = store_wait_ms_total
        if extra_wait > 0:
            log_wait = extra_wait - store_wait_total
            if log_wait > 0:
                stages["log_queue_wait"] = (
                    stages.get("log_queue_wait", 0.0) + log_wait
                )
            if store_wait_total > 0:
                stages["store_queue_wait"] = (
                    stages.get("store_queue_wait", 0.0) + store_wait_total
                )
        return svc.trace.drain() + extra_wait

    def sequencer_stats(self) -> Dict[str, Any]:
        """Sequencer-station occupancy and batching statistics.

        ``occupancy`` is service-busy time over elapsed simulated time —
        the fraction of the run the sequencer's replicated state machine
        spent appending.  Monolith pays one service quantum per append;
        batched pays one per flushed batch; leased pays one per block
        refill.
        """
        now = self.sim.now
        service = self.config.cluster.sequencer_service_ms
        station = self._seq_station
        stats: Dict[str, Any] = {
            "strategy": self.config.storage.sequencer,
            "visits": self._seq_visits,
        }
        if station is None:
            busy_ms = self._seq_visits * service
        elif isinstance(station, SequencerBatchStation):
            busy_ms = station.busy_ms
            stats["batches"] = station.batches
            stats["mean_batch_size"] = station.mean_batch_size
        else:
            busy_ms = station.busy_ms
            stats["refills"] = station.refills
        stats["busy_ms"] = busy_ms
        stats["occupancy"] = busy_ms / now if now > 0 else 0.0
        return stats

    def _gc_process(self):
        interval = self.config.gc.interval_ms
        while True:
            yield interval
            self.runtime.run_gc()
            self._sample_storage()

    def at(self, time_ms: float, action: Callable[[], None]) -> None:
        """Schedule ``action()`` at an absolute simulation time."""

        def process():
            delay = time_ms - self.sim.now
            if delay > 0:
                yield delay
            action()
            self._sample_storage()

        self.sim.process(process(), name="scheduled-action")

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run(
        self,
        rate_per_s: float,
        duration_ms: float,
        warmup_ms: float = 0.0,
        drain_ms: float = 5_000.0,
    ) -> RunResult:
        """Drive the workload at ``rate_per_s`` for ``duration_ms``.

        ``warmup_ms`` of leading completions are excluded from latency
        statistics; the simulation runs ``drain_ms`` past the last arrival
        so queued requests finish.
        """
        self._warmup_ms = warmup_ms
        self.sim.process(
            self._arrival_process(rate_per_s, duration_ms), name="arrivals"
        )
        if self.config.gc.enabled:
            self.sim.process(self._gc_process(), name="gc")
        if self.lease is not None:
            self.lease.start()
        self.sim.run(until=duration_ms + drain_ms)
        self._sample_storage()

        backend = self.runtime.backend
        mean_ms, median_ms, p99_ms = (
            self.latencies.stats() if self.latencies.count > 0
            else (0.0, 0.0, 0.0)
        )
        avg_log_bytes = self.log_gauge.time_average(self.sim.now)
        avg_db_bytes = self.db_gauge.time_average(self.sim.now)
        measured_ms = duration_ms - warmup_ms
        extras: Dict[str, Any] = {
            "events_processed": self.sim.events_processed,
        }
        if self.config.cluster.model_log_contention:
            extras["sequencer"] = self.sequencer_stats()
        return RunResult(
            protocol=self.runtime.router.default_name,
            workload=self.workload.name,
            offered_rate_per_s=rate_per_s,
            duration_ms=duration_ms,
            completed=self.latencies.count,
            crashed_attempts=self.crashed_attempts,
            faulted_attempts=self.faulted_attempts,
            median_ms=median_ms,
            p99_ms=p99_ms,
            mean_ms=mean_ms,
            throughput_per_s=(
                self.latencies.count * 1000.0 / measured_ms
                if measured_ms > 0 else 0.0
            ),
            avg_log_bytes=avg_log_bytes,
            avg_db_bytes=avg_db_bytes,
            avg_total_bytes=avg_log_bytes + avg_db_bytes,
            latency_series=self.latency_series,
            counters=backend.counters.as_dict(),
            time_by_kind=dict(self.time_by_kind),
            extras=extras,
            node_crashes=self.node_crashes,
            orphaned_invocations=self.orphaned_invocations,
            recovered_orphans=(
                self.coordinator.recovered
                if self.coordinator is not None else 0
            ),
            detection_ms=self.detection_latency,
            takeover_ms=(
                self.coordinator.takeover_latency
                if self.coordinator is not None else None
            ),
            breakdown=self.breakdown,
            metrics=backend.metrics.snapshot(now_ms=self.sim.now),
        )
