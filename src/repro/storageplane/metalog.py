"""The metalog: global sequencer and record directory of the log plane.

In Boki the total order of the shared log is not produced by the storage
shards — a *metalog* (one sequencer appending to its own internal log)
assigns every record a position, and the shards merely materialise the
per-tag indexes and hold record bodies.  This class is that authority
for the log plane:

* it hands out the monotone seqnums (``assign``), so the global total
  order exists *before* any shard is touched — which is exactly why two
  concurrent ``logCondAppend`` calls to the same tag serialize here even
  when their other tags live on different shards;
* it tracks, per record, how many live sub-stream references remain
  (``add_refs`` / ``release_ref``), so a body is freed exactly once no
  matter which shards trim which tags — storage is accounted once per
  record, as in Boki;
* it records the per-shard trim frontier (``note_trim`` /
  ``shard_frontier``): the highest seqnum each shard has trimmed.  The
  GC computes its reclamation horizon per shard from these, and the
  regression tests pin the invariant that a trim on shard A can never
  advance shard B's frontier (or drop its records).

Fault tolerance (the storage-chaos PR) adds the sequencer's failure
story on top, mirroring Boki's metalog reconfiguration:

* The sequencer is a **leased leader** over a replicated state machine.
  Everything *committed* — refcounts, per-shard trim frontiers, the
  per-tag trim directory — models state already appended to the internal
  metalog log, so it survives any failover unconditionally.
* The only volatile piece is the allocation cursor for seqnums handed
  out but not yet installed on shards ("in-flight").  ``failover``
  promotes a standby at a new **epoch**:

  - at ``replication > 1`` the assignments were mirrored to standbys, so
    the new leader resumes at the exact ``next_seqnum`` — in-flight
    allocations are *recovered* and their installs land unchanged;
  - at ``replication == 1`` the assignments died with the leader, so the
    new leader resumes from ``committed_tail + 1`` — in-flight
    allocations are *invalidated*.  Re-issuing those numbers is safe
    because any install stamped with the old epoch is fenced.

* Every install/assign may carry the client's cached ``epoch``; a stale
  epoch raises :class:`~repro.errors.FencedEpochError` **before** any
  state changes, which is what makes retry-after-rediscovery duplicate-
  free.  ``epoch=None`` (the default everywhere) bypasses the check so
  the chaos-free paths stay bit-identical.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import FencedEpochError, LogError, StorageUnavailableError


class Metalog:
    """Sequencer + record reference directory for a sharded log."""

    def __init__(self, replication: int = 1):
        self._next_seqnum = 1
        self._tag_refs: Dict[int, int] = {}
        self._trim_frontier: Dict[int, int] = {}
        # Committed (replicated) state: the highest seqnum whose install
        # reached the shards, and the per-tag trim directory (tag -> the
        # highest trimmed seqnum of that tag's sub-stream).  Both model
        # records in the internal metalog log, so failover preserves them.
        self._committed_tail = 0
        self._stream_trims: Dict[str, Tuple[int, int]] = {}
        self._replication = int(replication)
        self._epoch = 1
        self._leader_alive = True
        self._failovers = 0
        self._fenced_appends = 0
        self._invalidated_allocations = 0

    # -- sequencing ------------------------------------------------------

    @property
    def next_seqnum(self) -> int:
        return self._next_seqnum

    @property
    def tail_seqnum(self) -> int:
        return self._next_seqnum - 1

    def assign(self, epoch: Optional[int] = None) -> int:
        """Allocate the next position in the global total order."""
        if epoch is not None:
            self.check_epoch(epoch, op="assign")
        seqnum = self._next_seqnum
        self._next_seqnum += 1
        return seqnum

    def assign_block(self, count: int, epoch: Optional[int] = None) -> int:
        """Allocate ``count`` contiguous positions; returns the first.

        One sequencer round trip leases a whole block (the
        ``leased-ranges`` strategy); the block's consumer stamps it with
        the current epoch, and a later failover invalidates whatever
        remains unconsumed — at ``replication == 1`` the reset cursor
        reclaims those numbers (counted in ``invalidated_allocations``),
        at higher replication they stay a hole the committed tail
        advances over.
        """
        if count < 1:
            raise LogError(f"block size must be >= 1, got {count}")
        if epoch is not None:
            self.check_epoch(epoch, op="assign_block")
        start = self._next_seqnum
        self._next_seqnum += count
        return start

    def commit(self, seqnum: int) -> None:
        """Mark an assigned seqnum as installed (replicated metalog entry).

        Installs are applied in assignment order by the sharded log, so
        the committed tail only ever moves forward.
        """
        if seqnum > self._committed_tail:
            self._committed_tail = seqnum

    @property
    def committed_tail(self) -> int:
        return self._committed_tail

    # -- leader lease / epoch fencing ------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def leader_alive(self) -> bool:
        return self._leader_alive

    @property
    def failovers(self) -> int:
        return self._failovers

    @property
    def fenced_appends(self) -> int:
        return self._fenced_appends

    @property
    def invalidated_allocations(self) -> int:
        return self._invalidated_allocations

    def check_epoch(self, epoch: Optional[int], op: str = "append") -> None:
        """Fence requests from crashed/stale leadership views.

        ``None`` bypasses the check (chaos-free paths); otherwise the
        request must carry the current epoch and the leader must hold a
        live lease.  Raised *before* any effect, so the caller's retry
        cannot duplicate state.
        """
        if epoch is None:
            return
        if not self._leader_alive:
            raise StorageUnavailableError(
                "metalog sequencer is down (no leader holds the lease)",
                service="log", op=op,
            )
        if epoch != self._epoch:
            self._fenced_appends += 1
            raise FencedEpochError(
                f"epoch {epoch} fenced by current epoch {self._epoch}",
                stale_epoch=int(epoch), current_epoch=self._epoch,
                service="log", op=op,
            )

    def crash_leader(self) -> None:
        """Kill the current sequencer leader; its lease stops renewing.

        Until ``failover`` promotes a standby, epoch-checked operations
        raise :class:`~repro.errors.StorageUnavailableError`.
        """
        self._leader_alive = False

    def failover(self) -> int:
        """Promote a standby sequencer at a new epoch.

        Returns the new epoch.  Committed state (refcounts, frontiers,
        stream-trim directory) carries over unconditionally; the volatile
        allocation cursor is recovered from standby replicas at R>1 or
        reset to ``committed_tail + 1`` at R=1 (in-flight allocations
        invalidated — numeric reuse is safe because old-epoch installs
        are fenced).
        """
        self._epoch += 1
        self._failovers += 1
        self._leader_alive = True
        if self._replication <= 1:
            resume = self._committed_tail + 1
            if self._next_seqnum > resume:
                self._invalidated_allocations += self._next_seqnum - resume
            self._next_seqnum = resume
        return self._epoch

    # -- reference directory ---------------------------------------------

    def add_refs(self, seqnum: int, count: int) -> None:
        self._tag_refs[seqnum] = count

    def release_ref(self, seqnum: int) -> bool:
        """Drop one sub-stream reference; ``True`` when it was the last."""
        refs = self._tag_refs.get(seqnum)
        if refs is None:
            raise LogError(f"seqnum {seqnum} has no live references")
        refs -= 1
        if refs == 0:
            del self._tag_refs[seqnum]
            return True
        self._tag_refs[seqnum] = refs
        return False

    def reference_counts(self) -> Dict[int, int]:
        return dict(self._tag_refs)

    # -- per-shard trim frontier -----------------------------------------

    def note_trim(self, shard: int, seqnum: int) -> None:
        """Record that ``shard`` trimmed its streams up through ``seqnum``."""
        current = self._trim_frontier.get(shard, 0)
        if seqnum > current:
            self._trim_frontier[shard] = seqnum

    def shard_frontier(self, shard: int) -> int:
        """Highest seqnum ``shard`` has trimmed (0 if it never trimmed)."""
        return self._trim_frontier.get(shard, 0)

    def frontiers(self) -> Dict[int, int]:
        return dict(self._trim_frontier)

    # -- per-tag trim directory ------------------------------------------

    def note_stream_trim(self, tag: str, count: int, seqnum: int) -> None:
        """Record that ``count`` more head records of ``tag``'s sub-stream
        were trimmed, through ``seqnum``.

        This is the metalog's replicated trim record for one tag; a lost
        shard uses it to rebuild its sub-stream indexes without
        resurrecting garbage-collected prefixes — the cumulative count
        restores the stream's *offset* origin (``trimmed_count``), which
        ``logCondAppend`` races depend on, and the seqnum bounds which
        live records still belong to the stream.
        """
        trimmed, highest = self._stream_trims.get(tag, (0, 0))
        self._stream_trims[tag] = (trimmed + count, max(highest, seqnum))

    def stream_trim(self, tag: str) -> Tuple[int, int]:
        """``(trimmed_count, highest_trimmed_seqnum)`` for ``tag``."""
        return self._stream_trims.get(tag, (0, 0))

    def stream_trims(self) -> Dict[str, Tuple[int, int]]:
        return dict(self._stream_trims)
