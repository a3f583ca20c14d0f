"""Storage-plane chaos orchestration: timed kills and recoveries.

Node-level recovery (the coordinator/lease machinery in this package)
exercises the paper's *function-side* fault model.  This module drives
the *storage-side* one: the sequencer, individual log-shard replicas,
and KV partitions are killed mid-run on the DES timeline and recovered
through the mechanisms in :mod:`repro.storageplane` —

* **metalog** — :meth:`~repro.storageplane.ShardedLog.crash_sequencer`
  followed by a fenced failover at a higher epoch; workers holding the
  old epoch get :class:`~repro.errors.FencedEpochError` and rediscover;
* **shard replica** — at R>1 the primary's death promotes a survivor
  and the dead copy is later repaired from one; at R=1 the shard's
  index is lost entirely and rebuilt from the record directory plus the
  metalog's trim directory;
* **partition** — the store's contents are lost and rebuilt from the
  last checkpoint plus the redo journal; the controller snapshots the
  partition *before* the kill so the rebuild can be diffed key-by-key.

Every transition drops the affected slice of the node-side record cache
(:meth:`~repro.runtime.services.ServiceBackend.drop_shard_cache`) — a
cached record may predate the new serving replica's state and must not
be served after failover.

The controller only *schedules*; the actual timing runs through
``platform.at`` so storage events interleave with load, node crashes,
and GC exactly as the simulation orders them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..storageplane.audit import diff_partition_snapshots

#: Storage components the chaos grid can kill.  ``netsplit`` is listed
#: for completeness — link windows are armed via
#: :class:`~repro.config.StorageChaosConfig`, not via kill events.
STORAGE_COMPONENTS = ("metalog", "shard-replica", "partition", "netsplit")


class StorageChaosController:
    """Schedules storage-component crashes and recoveries on a platform.

    Construct with a :class:`~repro.harness.platform.SimPlatform`;
    ``schedule_*`` before ``platform.run``; call :meth:`heal` after the
    drain and before any consistency audit.
    """

    def __init__(self, platform):
        backend = platform.runtime.backend
        self.platform = platform
        self.backend = backend
        self.log = backend.log
        self.kv = backend.kv
        #: ``(event, sim_time_ms, attrs)`` in firing order.
        self.events: List[Tuple[str, float, Dict[str, Any]]] = []
        #: Key-level diffs from partition rebuilds (empty ⇔ faithful).
        self.rebuild_diffs: List[str] = []
        self._partition_snapshots: Dict[int, Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def _instant(self, name: str, **attrs: Any) -> None:
        now = self.platform.sim.now
        self.events.append((name, now, attrs))
        tracer = self.platform.tracer
        if tracer is not None:
            tracer.instant(name, now, **attrs)

    # ------------------------------------------------------------------
    # Metalog (sequencer)
    # ------------------------------------------------------------------

    def crash_sequencer(self) -> None:
        if not self.log.metalog.leader_alive:
            return
        self.log.crash_sequencer()
        self._instant("metalog-crash", epoch=self.log.epoch)

    def failover_sequencer(self) -> None:
        if self.log.metalog.leader_alive:
            return
        epoch = self.log.failover_sequencer()
        self._instant(
            "metalog-failover", epoch=epoch,
            invalidated=self.log.metalog.invalidated_allocations,
        )

    def schedule_sequencer_crash(
        self, crash_at_ms: float, failover_after_ms: float = 400.0
    ) -> None:
        """Kill the sequencer at ``crash_at_ms``; standby takes over
        ``failover_after_ms`` later at a fenced, higher epoch."""
        self.platform.at(crash_at_ms, self.crash_sequencer)
        self.platform.at(
            crash_at_ms + failover_after_ms, self.failover_sequencer
        )

    # ------------------------------------------------------------------
    # Log-shard replicas
    # ------------------------------------------------------------------

    def crash_shard(
        self, shard_id: int, replica: Optional[int] = None
    ) -> None:
        if shard_id in self.log.down_shards():
            return
        self.log.crash_shard_replica(shard_id, replica)
        # Whatever the record cache holds for this shard may predate the
        # promoted replica (or the upcoming rebuild): never serve it.
        evicted = self.backend.drop_shard_cache(shard_id)
        rs = self.log.replica_set(shard_id)
        self._instant(
            "shard-replica-crash", shard=shard_id,
            replica=replica, cache_evicted=evicted,
            down=shard_id in self.log.down_shards(),
            quorum=(rs.has_quorum if rs is not None else None),
        )

    def recover_shard(self, shard_id: int) -> None:
        """Bring every copy of ``shard_id`` back: repair dead replicas
        from survivors, or rebuild the index from the log when none
        survived (always the case at R=1)."""
        rs = self.log.replica_set(shard_id)
        if shard_id in self.log.down_shards():
            restored = self.log.rebuild_shard(shard_id)
            self.backend.drop_shard_cache(shard_id)
            self._instant(
                "shard-rebuild", shard=shard_id, streams=restored
            )
            return
        if rs is None:
            return
        repaired = [
            idx
            for idx, alive in enumerate(rs.live)
            if not alive and self.log.repair_shard_replica(shard_id, idx)
        ]
        if repaired:
            self._instant(
                "shard-repair", shard=shard_id, replicas=repaired
            )

    def schedule_shard_crash(
        self,
        crash_at_ms: float,
        shard_id: int = 0,
        recover_after_ms: float = 400.0,
        replica: Optional[int] = None,
    ) -> None:
        """Kill one replica of ``shard_id`` (default: the serving one)
        at ``crash_at_ms`` and repair/rebuild it later."""
        self.platform.at(
            crash_at_ms, lambda: self.crash_shard(shard_id, replica)
        )
        self.platform.at(
            crash_at_ms + recover_after_ms,
            lambda: self.recover_shard(shard_id),
        )

    # ------------------------------------------------------------------
    # KV partitions
    # ------------------------------------------------------------------

    def crash_partition(self, index: int) -> None:
        if index in self.kv.down_partitions():
            return
        # Snapshot the committed state so the rebuild can be audited
        # key-by-key, not just "did the invariants hold".
        self._partition_snapshots[index] = self.kv.snapshot_partition(
            index
        )
        self.kv.crash_partition(index)
        self._instant(
            "partition-crash", partition=index,
            journal=self.kv.journal_length(index),
        )

    def rebuild_partition(self, index: int) -> None:
        if index not in self.kv.down_partitions():
            return
        replayed = self.kv.rebuild_partition(index)
        before = self._partition_snapshots.pop(index, None)
        if before is not None:
            diffs = diff_partition_snapshots(
                before, self.kv.snapshot_partition(index)
            )
            self.rebuild_diffs.extend(
                f"partition {index}: {d}" for d in diffs
            )
        self._instant(
            "partition-rebuild", partition=index, replayed=replayed
        )

    def schedule_partition_crash(
        self,
        crash_at_ms: float,
        index: int = 0,
        rebuild_after_ms: float = 400.0,
    ) -> None:
        """Lose partition ``index`` at ``crash_at_ms``; rebuild it from
        checkpoint + journal ``rebuild_after_ms`` later."""
        self.platform.at(crash_at_ms, lambda: self.crash_partition(index))
        self.platform.at(
            crash_at_ms + rebuild_after_ms,
            lambda: self.rebuild_partition(index),
        )

    # ------------------------------------------------------------------
    # Healing + reporting
    # ------------------------------------------------------------------

    def heal(self) -> None:
        """Force-recover anything still down (idempotent).

        Run after the drain, before the exactly-once audit: the audit
        asks whether recovery *preserved* the guarantees, not whether
        the system limps while degraded — degraded-mode behaviour is
        covered by the rejected-operation counters instead.
        """
        self.failover_sequencer()
        for shard_id in range(self.log.num_shards):
            if (shard_id in self.log.down_shards()
                    or shard_id in self.log.quorum_lost_shards()):
                self.recover_shard(shard_id)
            else:
                rs = self.log.replica_set(shard_id)
                if rs is not None and rs.live_count < rs.replication:
                    self.recover_shard(shard_id)
        for index in list(self.kv.down_partitions()):
            self.rebuild_partition(index)

    def report(self) -> Dict[str, Any]:
        metalog = self.log.metalog
        return {
            "events": [
                {"event": name, "t_ms": round(t, 3), **attrs}
                for name, t, attrs in self.events
            ],
            "epoch": self.log.epoch,
            "failovers": metalog.failovers,
            "fenced_appends": metalog.fenced_appends,
            "invalidated_allocations": metalog.invalidated_allocations,
            "shard_rebuilds": self.log.rebuilds,
            "partition_rebuilds": self.kv.rebuilds,
            "rebuild_diffs": list(self.rebuild_diffs),
        }
