"""The shared log: metalog sequencing over N per-tag index shards.

Implements the five log APIs from Figure 3 of the paper —
``append`` (``logAppend``), ``read_prev`` / ``read_next``
(``logReadPrev`` / ``logReadNext``), ``trim`` (``logTrim``) and
``cond_append`` (``logCondAppend``, Section 5.1) — with the two roles
Boki's logging layer actually has:

* the :class:`~repro.storageplane.metalog.Metalog` assigns the global,
  monotone seqnums and owns record reference counts and per-shard trim
  frontiers;
* N :class:`LogShard` s hold the per-tag sub-stream indexes, routed
  deterministically by tag (:class:`~repro.storageplane.routing.Router`),
  and account the bytes of the record bodies homed on them.

Each tag names a sub-stream; a record may belong to several, and
sub-stream order is inherited from the global seqnum order.  Record
bodies are stored once (keyed by seqnum) and homed on the shard of the
record's *first* tag; other tags of the same record may index it from
other shards, mirroring how Boki stores a record body once while
several tag indexes reference it.  A body is freed when the last shard
trims its last referencing stream — the metalog's refcount, not any
single shard, decides.

Every deployment runs this one log; the shard count only changes where
sub-streams live, which shows through per-shard metrics, placement
labels and the DES per-shard queueing model.

Fault tolerance: every component is crashable.

* The sequencer leader can crash (``crash_sequencer``) and fail over at
  a new epoch (``failover_sequencer``); appends optionally carry the
  caller's cached epoch and are fenced when stale (see
  :mod:`~repro.storageplane.metalog` for the recovery semantics).
* At ``replication > 1`` each shard's indexes live on a
  :class:`~repro.storageplane.replication.ShardReplicaSet`; appends
  require a live write quorum (:class:`~repro.errors.QuorumLostError`
  otherwise), reads fail over via survivor promotion, and crashed
  replicas are re-replicated from survivors.
* At ``replication = 1`` a killed shard goes fully down
  (:class:`~repro.errors.StorageUnavailableError` window) until
  ``rebuild_shard`` reconstructs its sub-stream indexes from the global
  record directory plus the metalog's per-tag trim directory — the
  paper's rebuild-from-log recovery story, applied to storage.

All degraded-mode checks hang off one ``_degraded`` flag, so the
chaos-free hot paths pay a single attribute test.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..errors import (
    ConditionalAppendError,
    LogError,
    ProtocolError,
    QuorumLostError,
    StorageUnavailableError,
    TrimmedError,
)
from ..sharedlog.record import LogRecord
from .metalog import Metalog
from .routing import Router
from .sequencer import build_sequencer


class _Stream:
    """One tag's sub-stream: a sorted list of live seqnums plus the count of
    records trimmed from its head (so stream *offsets* stay stable)."""

    __slots__ = ("seqnums", "trimmed_count")

    def __init__(self) -> None:
        self.seqnums: List[int] = []
        self.trimmed_count = 0

    def append(self, seqnum: int) -> None:
        # The sequencer hands out increasing seqnums, so appends keep the
        # list sorted without a search.
        self.seqnums.append(seqnum)

    @property
    def next_offset(self) -> int:
        return self.trimmed_count + len(self.seqnums)

    def index_of_offset(self, offset: int) -> int:
        return offset - self.trimmed_count


class LogShard:
    """One storage shard: tag sub-stream indexes plus homed-body bytes."""

    __slots__ = ("shard_id", "streams", "storage_bytes")

    def __init__(self, shard_id: int):
        self.shard_id = shard_id
        self.streams: Dict[str, _Stream] = {}
        self.storage_bytes = 0


class ShardedLog:
    """The shared log: a global sequencer and tagged sub-streams routed
    across N shards."""

    def __init__(
        self,
        meta_bytes: int = 48,
        shards: int = 1,
        replication: int = 1,
        sequencer: str = "monolith",
        sequencer_options: Optional[Any] = None,
    ):
        self._meta_bytes = int(meta_bytes)
        self.metalog = Metalog(replication=replication)
        #: Sequencing strategy over the metalog (see
        #: :mod:`~repro.storageplane.sequencer`); ``monolith`` is a
        #: passthrough and bit-identical to calling the metalog directly.
        self.sequencer = build_sequencer(
            sequencer, self.metalog, sequencer_options
        )
        #: Bound once: every append assigns and commits, every append,
        #: read and trim routes, so skip the attribute walks.
        self._assign = self.sequencer.assign
        self._commit = self.sequencer.commit
        self.router = Router(shards)
        self._route = self.router.route
        self._shards = [LogShard(i) for i in range(shards)]
        self._records: Dict[int, LogRecord] = {}
        #: The metalog's reference directory, written inline by
        #: ``_install`` (``metalog.add_refs`` costs more to dispatch
        #: than to run at this call rate).
        self._tag_refs = self.metalog._tag_refs
        self._storage_bytes = 0
        self._append_count = 0
        self._trim_count = 0
        self.replication = int(replication)
        self._replica_sets = None
        if replication > 1:
            from .replication import ShardReplicaSet
            self._replica_sets = [
                ShardReplicaSet(shard, replication) for shard in self._shards
            ]
        #: Degraded-mode bookkeeping; ``_degraded`` is the single flag
        #: the hot paths test.  ``_down_shards`` — no live replica at all
        #: (reads and writes rejected); ``_no_quorum`` — a minority of
        #: replicas left (writes rejected, reads served by survivors).
        self._down_shards: Set[int] = set()
        self._no_quorum: Set[int] = set()
        self._degraded = False
        self._rebuilds = 0

    # ------------------------------------------------------------------
    # Placement / introspection
    # ------------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self._shards)

    def shard_of(self, tag: str) -> int:
        """Deterministic tag → shard placement."""
        return self._route(tag)

    def _stream_of(self, tag: str) -> Optional[_Stream]:
        """Hot-path ``shard_of`` + the shard's stream table in one go."""
        shard_id = self._route(tag)
        if self._degraded and shard_id in self._down_shards:
            raise StorageUnavailableError(
                f"log shard {shard_id} has no live replica",
                service="log", op="read",
            )
        return self._shards[shard_id].streams.get(tag)

    def _check_writable(self, tags: Sequence[str], op: str) -> None:
        """Reject an append touching any shard that cannot take writes.

        Raised before the sequencer assigns, so a rejected append has no
        effect anywhere.  Reads only require one live replica; writes
        additionally require a quorum at R>1.
        """
        if not self.metalog.leader_alive:
            raise StorageUnavailableError(
                "metalog sequencer is down", service="log", op=op,
            )
        for tag in tags:
            shard_id = self._route(tag)
            if shard_id in self._down_shards:
                raise StorageUnavailableError(
                    f"log shard {shard_id} has no live replica",
                    service="log", op=op,
                )
            if shard_id in self._no_quorum:
                raise QuorumLostError(
                    f"log shard {shard_id} lost its write quorum",
                    shard=shard_id, service="log", op=op,
                )

    def shard(self, shard_id: int) -> LogShard:
        return self._shards[shard_id]

    @property
    def next_seqnum(self) -> int:
        return self.sequencer.next_seqnum

    @property
    def tail_seqnum(self) -> int:
        return self.sequencer.tail_seqnum

    @property
    def append_count(self) -> int:
        return self._append_count

    @property
    def trim_count(self) -> int:
        return self._trim_count

    @property
    def live_record_count(self) -> int:
        return len(self._records)

    def storage_bytes(self) -> int:
        return self._storage_bytes

    def shard_bytes(self, shard_id: int) -> int:
        return self._shards[shard_id].storage_bytes

    def shard_trim_frontiers(self) -> Dict[int, int]:
        """Per-shard trim frontier, computed by the metalog."""
        return self.metalog.frontiers()

    def shard_stats(self) -> List[Dict[str, int]]:
        """Per-shard snapshot, computed when asked: the append path
        counts nothing per shard but its bytes."""
        homed = [0] * len(self._shards)
        for record in self._records.values():
            homed[self._route(record.tags[0])] += 1
        return [
            {
                "shard": s.shard_id,
                "streams": len(s.streams),
                "homed_records": homed[s.shard_id],
                "bytes": s.storage_bytes,
                "trim_frontier": self.metalog.shard_frontier(s.shard_id),
            }
            for s in self._shards
        ]

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        payload_bytes: int = 0,
        epoch: Optional[int] = None,
    ) -> int:
        """``logAppend``: add a record to every sub-stream in ``tags``
        and return its seqnum."""
        if not tags:
            raise LogError("append requires at least one tag")
        # Every rejection happens *before* the sequencer assigns — a
        # fenced or degraded append leaves no allocation in flight, so
        # the caller's retry cannot duplicate a seqnum.
        if epoch is not None:
            self.metalog.check_epoch(epoch, op="append")
        if self._degraded:
            self._check_writable(tags, op="append")
        return self._install(tuple(tags), data, payload_bytes)

    def cond_append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        cond_tag: str,
        cond_pos: int,
        payload_bytes: int = 0,
        epoch: Optional[int] = None,
    ) -> int:
        """``logCondAppend`` (Section 5.1), serialized through the metalog.

        Appends only if the new record would land at offset ``cond_pos``
        of the ``cond_tag`` sub-stream, i.e. the caller's view of its own
        execution history is current.  The offset check consults the
        shard owning ``cond_tag``, but the outcome is decided at the
        sequencer: whichever peer's append is sequenced first occupies
        the offset, and the loser's :class:`ConditionalAppendError`
        carries the winner's seqnum — regardless of where the records'
        other tags are placed.
        """
        if cond_tag not in tags:
            raise LogError("cond_tag must be one of the record's tags")
        if epoch is not None:
            self.metalog.check_epoch(epoch, op="cond_append")
        if self._degraded:
            self._check_writable(tags, op="cond_append")
        stream = self._stream_of(cond_tag)
        next_offset = stream.next_offset if stream is not None else 0
        if next_offset == cond_pos:
            return self._install(tuple(tags), data, payload_bytes)
        if next_offset > cond_pos:
            existing = self._record_at_offset(cond_tag, cond_pos)
            raise ConditionalAppendError(
                f"offset {cond_pos} of stream {cond_tag!r} already taken "
                f"by seqnum {existing.seqnum}",
                existing_seqnum=existing.seqnum,
            )
        raise ProtocolError(
            f"cond_append at offset {cond_pos} of stream {cond_tag!r}, "
            f"but the stream only has {next_offset} records: the caller "
            "skipped a step"
        )

    def _record_at_offset(self, tag: str, offset: int) -> LogRecord:
        stream = self._stream_of(tag)
        if stream is None:
            raise LogError(f"unknown stream {tag!r}")
        index = stream.index_of_offset(offset)
        if index < 0:
            raise TrimmedError(
                f"offset {offset} of stream {tag!r} was garbage collected"
            )
        if index >= len(stream.seqnums):
            raise LogError(f"offset {offset} of stream {tag!r} out of range")
        return self._records[stream.seqnums[index]]

    def _install(self, tags: Tuple[str, ...], data: Mapping[str, Any],
                 payload_bytes: int) -> int:
        """Sequence a checked append and index it on its tags' shards."""
        seqnum = self._assign()
        record = LogRecord(seqnum, tags, data, int(payload_bytes))
        shards = self._shards
        route = self._route
        replica_sets = self._replica_sets
        self._records[seqnum] = record
        self._tag_refs[seqnum] = len(tags)
        for tag in tags:
            shard_id = route(tag)
            streams = shards[shard_id].streams
            stream = streams.get(tag)
            if stream is None:
                stream = streams[tag] = _Stream()
            # Inlined ``_Stream.append``: seqnums arrive in order.
            stream.seqnums.append(seqnum)
            if replica_sets is not None:
                replica_sets[shard_id].mirror_append(tag, seqnum)
        self._commit(seqnum)
        size = self._meta_bytes + record.payload_bytes
        self._storage_bytes += size
        # The body is homed on its first tag's shard.
        shards[route(tags[0])].storage_bytes += size
        self._append_count += 1
        return seqnum

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_prev(self, tag: str, max_seqnum: int) -> Optional[LogRecord]:
        stream = self._stream_of(tag)
        if stream is None:
            return None
        index = bisect.bisect_right(stream.seqnums, max_seqnum) - 1
        if index >= 0:
            return self._records[stream.seqnums[index]]
        if stream.trimmed_count > 0:
            raise TrimmedError(
                f"read_prev(tag={tag!r}, max_seqnum={max_seqnum}) targets "
                "only garbage-collected records"
            )
        return None

    def read_next(self, tag: str, min_seqnum: int) -> Optional[LogRecord]:
        stream = self._stream_of(tag)
        if stream is None:
            return None
        index = bisect.bisect_left(stream.seqnums, min_seqnum)
        if index < len(stream.seqnums):
            return self._records[stream.seqnums[index]]
        return None

    def read_stream(self, tag: str) -> List[LogRecord]:
        stream = self._stream_of(tag)
        if stream is None:
            return []
        return [self._records[s] for s in stream.seqnums]

    def stream_length(self, tag: str) -> int:
        stream = self._stream_of(tag)
        return stream.next_offset if stream is not None else 0

    def stream_tags(self) -> List[str]:
        """All stream tags, shard-major in shard insertion order (with
        one shard, the global insertion order)."""
        tags: List[str] = []
        for shard in self._shards:
            tags.extend(shard.streams)
        return tags

    # ------------------------------------------------------------------
    # Trim (garbage collection support)
    # ------------------------------------------------------------------

    def trim(self, tag: str, seqnum: int) -> int:
        """Trim ``tag``'s stream on its shard only.

        The owning shard's trim frontier advances in the metalog; other
        shards' streams, frontiers, and homed bodies are untouched
        unless this release was the record's last reference.
        """
        shard_id = self._route(tag)
        if self._degraded and shard_id in self._down_shards:
            # Conservative under-trim: the GC retries on its next cycle
            # once the shard is rebuilt; never crash the collector.
            return 0
        shards = self._shards
        stream = shards[shard_id].streams.get(tag)
        if stream is None:
            return 0
        cut = bisect.bisect_right(stream.seqnums, seqnum)
        if cut == 0:
            return 0
        removed = stream.seqnums[:cut]
        del stream.seqnums[:cut]
        stream.trimmed_count += len(removed)
        if self._replica_sets is not None:
            self._replica_sets[shard_id].mirror_trim(tag, cut)
        self.metalog.note_trim(shard_id, removed[-1])
        self.metalog.note_stream_trim(tag, len(removed), removed[-1])
        for sn in removed:
            if self.metalog.release_ref(sn):
                record = self._records.pop(sn)
                # A body is homed on its first tag's shard; placement is
                # pure, so the home is recomputed rather than stored.
                home = shards[self._route(record.tags[0])]
                size = self._meta_bytes + record.payload_bytes
                self._storage_bytes -= size
                home.storage_bytes -= size
                self._trim_count += 1
        return len(removed)

    # ------------------------------------------------------------------
    # Storage-plane failures and recovery
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.metalog.epoch

    @property
    def rebuilds(self) -> int:
        return self._rebuilds

    def down_shards(self) -> Set[int]:
        return set(self._down_shards)

    def quorum_lost_shards(self) -> Set[int]:
        return set(self._no_quorum)

    def replica_set(self, shard_id: int):
        if self._replica_sets is None:
            return None
        return self._replica_sets[shard_id]

    def _refresh_degraded(self) -> None:
        self._degraded = bool(
            self._down_shards or self._no_quorum
            or not self.metalog.leader_alive
        )

    def crash_sequencer(self) -> None:
        """Kill the metalog leader; appends fail until failover."""
        self.metalog.crash_leader()
        self._refresh_degraded()

    def failover_sequencer(self) -> int:
        """Promote a standby sequencer; returns the new (fencing) epoch.

        The sequencing strategy runs its pre-failover hook first: the
        new leader reconstructs the committed tail from what the shards
        actually installed, so a batched strategy flushes its pending
        commits — otherwise the R=1 cursor reset would re-issue seqnums
        of already-installed records.
        """
        self.sequencer.on_failover()
        epoch = self.metalog.failover()
        self._refresh_degraded()
        return epoch

    def crash_shard_replica(
        self, shard_id: int, replica: Optional[int] = None
    ) -> Optional[int]:
        """Kill one replica of a shard (the serving one by default).

        At ``replication > 1`` a surviving copy is promoted to serve
        reads; losing a majority blocks writes
        (:class:`~repro.errors.QuorumLostError`), losing every replica
        takes the shard fully down.  At ``replication = 1`` the shard's
        index state is wiped and the shard goes down until
        ``rebuild_shard`` — record *bodies* (the durable log underneath)
        survive in the record directory.  Returns the replica index
        killed, or ``None`` for an R=1 whole-shard kill.
        """
        if self._replica_sets is not None:
            rs = self._replica_sets[shard_id]
            killed = rs.crash(replica)
            if rs.all_dead:
                self._down_shards.add(shard_id)
                self._no_quorum.discard(shard_id)
            elif not rs.has_quorum:
                self._no_quorum.add(shard_id)
            self._refresh_degraded()
            return killed
        self._shards[shard_id].streams = {}
        self._down_shards.add(shard_id)
        self._refresh_degraded()
        return None

    def repair_shard_replica(self, shard_id: int, replica: int) -> bool:
        """Re-replicate a crashed copy from a survivor (R>1 only)."""
        if self._replica_sets is None:
            raise LogError("repair_shard_replica requires replication > 1")
        rs = self._replica_sets[shard_id]
        ok = rs.repair(replica)
        if ok:
            if rs.has_quorum:
                self._no_quorum.discard(shard_id)
            self._down_shards.discard(shard_id)
            self._refresh_degraded()
        return ok

    def rebuild_shard(self, shard_id: int) -> int:
        """Reconstruct a down shard's sub-stream indexes from the log.

        This is the paper's rebuild-from-log recovery applied to the
        storage tier: the record directory (durable bodies) is replayed
        forward and filtered through the metalog's per-tag trim
        directory, so garbage-collected prefixes stay collected and
        every surviving stream keeps its exact offset origin
        (``trimmed_count``) — which the ``logCondAppend`` races depend
        on.  Returns the number of streams reconstructed.
        """
        shard = self._shards[shard_id]
        streams: Dict[str, _Stream] = {}
        stream_trims = self.metalog.stream_trims()
        # Fully-trimmed streams must survive as empty streams with their
        # offset origin intact, or the next cond_append would see a
        # freshly-zeroed stream and mis-serialize.
        for tag, (trimmed, _highest) in stream_trims.items():
            if self.shard_of(tag) != shard_id:
                continue
            stream = streams[tag] = _Stream()
            stream.trimmed_count = trimmed
        for seqnum in sorted(self._records):
            record = self._records[seqnum]
            for tag in record.tags:
                if self.shard_of(tag) != shard_id:
                    continue
                stream = streams.get(tag)
                if stream is None:
                    stream = streams[tag] = _Stream()
                if seqnum > stream_trims.get(tag, (0, 0))[1]:
                    stream.append(seqnum)
        shard.streams = streams
        if self._replica_sets is not None:
            rs = self._replica_sets[shard_id]
            rs.copies[0] = streams
            rs.primary = 0
            rs.live = [True] + [False] * (rs.replication - 1)
            for i in range(1, rs.replication):
                rs.repair(i)
        self._down_shards.discard(shard_id)
        self._no_quorum.discard(shard_id)
        self._refresh_degraded()
        self._rebuilds += 1
        return len(streams)


#: Old name of the one log, exported by :mod:`repro.sharedlog` only.
SharedLog = ShardedLog
