"""Worker liveness on the live gateway: leases, fencing, orphan takeover.

:class:`Recovery` drives the clock-agnostic lease machinery
(:class:`~repro.recovery.lease.LeaseTable`) with wall-clock heartbeats,
so detection latency is measured wall time, and reuses
:class:`~repro.recovery.coordinator.RecoveryCoordinator` (``now_fn`` =
wall clock): a declared-dead worker is fenced, its in-flight invocation
goes back to the dispatcher's queue under the same instance id with the
next attempt number, and the protocol replay does the rest.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Iterable, Optional

from ..config import RecoveryConfig
from ..observe import Tracer
from ..observe.flightrec import FlightRecorder
from ..observe.registry import MetricsRegistry
from ..recovery import LeaseTable, Orphan, RecoveryCoordinator
from ..runtime.registry import InvocationTracker
from ..simulation.metrics import LatencyRecorder
from .chaos import KillEvent
from .dispatch import Dispatcher, _WorkerSlot


class Recovery:
    """Lease table, failure detector and takeover of one live run."""

    def __init__(
        self, config: RecoveryConfig, now: Callable[[], float],
        dispatcher: Dispatcher, tracker: InvocationTracker,
        metrics: MetricsRegistry, tracer: Optional[Tracer],
        flightrec: FlightRecorder, *,
        fence: Callable[[_WorkerSlot], None],
        respawn: Callable[[], Optional[int]],
        kills: Callable[[], Iterable[KillEvent]],
        dump: Callable[..., Any],
    ):
        """How a worker is killed, replaced or dumped is not decided
        here: ``fence(slot)`` stops it for good, ``respawn()`` returns
        its replacement's id (None: the run is ending), ``kills()`` are
        the chaos kills delivered so far, ``dump(trigger, meta=)``
        writes the flight recorder."""
        self.config = config
        self._now = now
        self.dispatcher = dispatcher
        self.tracer = tracer
        self.flightrec = flightrec
        self._fence = fence
        self._respawn = respawn
        self._kills = kills
        self._dump = dump
        self.lease = LeaseTable((), config.lease_ms)
        self.coordinator = RecoveryCoordinator(
            now, tracker, dispatcher.requeue, tracer=tracer,
        )
        self.detection_latency = metrics.register(
            "failure_detection_latency",
            LatencyRecorder("failure-detection"),
        )
        metrics.register("takeover_latency",
                         self.coordinator.takeover_latency)
        self.orphaned_invocations = 0

    # -- leases -------------------------------------------------------------

    def hello(self, worker_id: int, writer: Any) -> Optional[_WorkerSlot]:
        """A worker connected: its lease clock starts here, not at the
        fork — the template's boot can exceed the lease, and a worker
        must not be declared dead before it had a chance to heartbeat."""
        slot = self.dispatcher.slots.get(worker_id)
        if slot is None or slot.declared:
            return None
        slot.writer = writer
        self.lease.add_node(worker_id, self._now())
        return slot

    def renew(self, slot: _WorkerSlot) -> None:
        """Renew a worker's lease — unless it was already declared dead
        (a straggler frame must not resurrect a taken-over worker)."""
        if slot.alive and not slot.declared:
            self.lease.renew(slot.worker_id, self._now())

    async def detector(self) -> None:
        poll_s = self.config.detector_poll_ms / 1000.0
        while True:
            await asyncio.sleep(poll_s)
            self.check(self._now())

    def check(self, now: float) -> None:
        """Declare dead every worker whose lease ran out by ``now``."""
        for worker_id in self.lease.check(now):
            self.declare_dead(worker_id, now)
        # A spawned child that never connects (import failure, OOM) is
        # outside the lease table; give it a generous grace then declare.
        connect_grace_ms = max(10_000.0, 10 * self.config.lease_ms)
        for slot in list(self.dispatcher.slots.values()):
            if (slot.writer is None and not slot.declared
                    and now - slot.spawned_at_ms > connect_grace_ms):
                self.declare_dead(slot.worker_id, now)

    # -- takeover -----------------------------------------------------------

    def declare_dead(self, worker_id: int, now: float) -> None:
        slot = self.dispatcher.slots.get(worker_id)
        if slot is None or slot.declared:
            return
        slot.declared = True
        slot.alive = False
        # Fence: a declared-dead worker must not keep running (it may be
        # wedged rather than dead; its invocation is about to be taken
        # over, so any late effect from it would race the replay).
        self._fence(slot)
        slot.writer = None
        kill = next(
            (e for e in self._kills()
             if e.worker_id == worker_id and e.detected_at_ms is None),
            None,
        )
        if kill is not None:
            kill.detected_at_ms = now
            self.detection_latency.record(now - kill.at_ms)
        if self.tracer is not None:
            self.tracer.instant("declared-dead", now, node=worker_id)
        self.flightrec.record(
            "declared-dead", worker=worker_id,
            expected=kill is not None, busy_with=slot.busy_with,
            last_acked_op=slot.last_acked_op,
        )
        if kill is None:
            # An *unexpected* death (no chaos kill to blame) is exactly
            # the forensic case; chaos kills already dumped at delivery.
            self._dump("lease-expiry", meta={
                "worker": worker_id,
                "busy_with": slot.busy_with,
                "last_acked_op": slot.last_acked_op,
            })
        inv = self.dispatcher.strand(slot, now)
        if inv is not None:
            self.orphaned_invocations += 1
            self.coordinator.add_orphan(Orphan(
                instance_id=inv.instance_id,
                request=inv.request,
                arrival_ms=inv.arrival_ms,
                next_attempt=inv.attempt + 1,
                node_id=worker_id,
                orphaned_at_ms=now,
            ))
        self.coordinator.node_failed(worker_id, now)
        # Keep the pool at strength: a dead worker's replacement gets a
        # fresh id, process and lease.
        slot.replaced_by = self._respawn()
