"""Pluggable sequencing strategies for the metalog.

PR 4's shard sweep showed the wall: p99 flattens as shards scale because
every append still funnels through one global :class:`Metalog` cursor.
This module makes that policy pluggable.  A :class:`Sequencer` wraps the
metalog's two ordering duties — ``assign`` (allocate the next position
in the global total order) and ``commit`` (advance the replicated
committed tail once the install reached the shards) — behind a closed
table (:func:`build_sequencer`) selected by
``StorageSizeConfig.sequencer``:

* ``monolith`` — today's behaviour, a straight passthrough to
  :meth:`Metalog.assign` / :meth:`Metalog.commit`.  Paper-faithful and
  bit-identical to the pre-refactor code (the golden CI diffs pin it).
* ``batched`` — group commit.  Seqnum allocation is unchanged (the
  total order must exist before any shard is touched), but commits are
  buffered and flushed to the metalog every ``batch`` installs, so the
  sequencer's replicated state machine takes one commit append per
  batch instead of one per record.  ``hold_ms`` is the max time a
  commit may sit in the buffer; the substrate is clockless, so the
  hold window is enforced by the DES batching station and the live
  gateway's coalescer, not here.  ``batch=1`` degenerates to monolith.
* ``leased-ranges`` — epoch-leased seqnum blocks.  The log leases a
  contiguous block of ``block`` seqnums from the metalog in one
  allocation (:meth:`Metalog.assign_block`) and hands them out locally,
  so the sequencer is visited once per block instead of once per
  append.  Every :class:`LeasedBlock` is stamped with the epoch it was
  granted under; a failover bumps the epoch, which invalidates the
  remainder of the block — a stale block can never commit
  (:class:`~repro.errors.FencedEpochError`), the discarded seqnums are
  counted, and at replication > 1 they become a permanent hole the
  committed tail heals over (``commit`` is a max).  ``block=1``
  degenerates to monolith.

Because the lease holder is the sharded log itself (the substrate is
single-threaded), leased seqnums are handed out in assignment order and
the per-tag sub-streams keep their strictly-increasing invariant; the
strategies differ in *how often the sequencer is touched*, which is
exactly what the DES stations and the scale experiment model.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..errors import ConfigError
from .fencing import LeasedBlock
from .metalog import Metalog

__all__ = [
    "BatchedSequencer",
    "LeasedBlock",
    "LeasedRangeSequencer",
    "MonolithSequencer",
    "Sequencer",
    "available_sequencers",
    "build_sequencer",
]


class Sequencer:
    """Ordering policy over a :class:`Metalog`.

    Subclasses decide how allocations and commits reach the metalog;
    the metalog remains the single source of truth for epochs, fencing,
    refcounts, and trim directories.
    """

    name = "abstract"

    def __init__(self, metalog: Metalog):
        self.metalog = metalog

    def assign(self, epoch: Optional[int] = None) -> int:
        """Allocate the next position in the global total order."""
        raise NotImplementedError

    def commit(self, seqnum: int) -> None:
        """Mark an assigned seqnum as installed on the shards."""
        raise NotImplementedError

    @property
    def next_seqnum(self) -> int:
        return self.metalog.next_seqnum

    @property
    def tail_seqnum(self) -> int:
        return self.next_seqnum - 1

    def on_failover(self) -> None:
        """Hook run *before* the metalog promotes a new leader."""

    def stats(self) -> Dict[str, object]:
        return {"sequencer": self.name}


class MonolithSequencer(Sequencer):
    """One global cursor, one commit per record — the paper's design."""

    name = "monolith"

    def __init__(self, metalog: Metalog):
        super().__init__(metalog)
        # A passthrough: the metalog's own methods, so an append pays
        # no extra call frame.
        self.assign = metalog.assign
        self.commit = metalog.commit


class BatchedSequencer(Sequencer):
    """Group commit: one metalog commit append per ``batch`` installs.

    Allocation stays per-record (the total order is decided at assign
    time); only the committed-tail advancement is amortized.  On
    failover the pending buffer is flushed *before* the epoch bumps —
    the new leader reconstructs the tail from what the shards actually
    installed (Boki's metalog reconfiguration), and skipping this at
    replication = 1 would reset the allocation cursor below installed
    records and re-issue their seqnums.
    """

    name = "batched"

    def __init__(self, metalog: Metalog, batch: int = 8,
                 hold_ms: float = 0.2):
        super().__init__(metalog)
        if batch < 1:
            raise ConfigError("sequencer_batch must be >= 1")
        if hold_ms < 0:
            raise ConfigError("sequencer_hold_ms must be >= 0")
        self.batch = int(batch)
        self.hold_ms = float(hold_ms)
        self._pending: List[int] = []
        self.commits_buffered = 0
        self.commit_flushes = 0
        self.commits_flushed = 0

    def assign(self, epoch: Optional[int] = None) -> int:
        return self.metalog.assign(epoch)

    def commit(self, seqnum: int) -> None:
        self._pending.append(seqnum)
        self.commits_buffered += 1
        if len(self._pending) >= self.batch:
            self.flush()

    def flush(self) -> int:
        """Commit the whole buffer as one metalog append; returns its size."""
        pending = self._pending
        if not pending:
            return 0
        count = len(pending)
        self.metalog.commit(max(pending))
        pending.clear()
        self.commit_flushes += 1
        self.commits_flushed += count
        return count

    @property
    def pending_commits(self) -> int:
        return len(self._pending)

    def on_failover(self) -> None:
        self.flush()

    def stats(self) -> Dict[str, object]:
        flushes = self.commit_flushes
        return {
            "sequencer": self.name,
            "batch": self.batch,
            "hold_ms": self.hold_ms,
            "commit_flushes": flushes,
            "commits_buffered": self.commits_buffered,
            "pending_commits": len(self._pending),
            "mean_batch_size": (
                self.commits_flushed / flushes if flushes else 0.0
            ),
        }


class LeasedRangeSequencer(Sequencer):
    """Epoch-leased contiguous seqnum blocks, fenced on failover.

    The sharded log is the lease holder: it drains one
    :class:`LeasedBlock` cursor locally and returns to the metalog only
    for a refill, cutting sequencer visits to one per ``block``
    records.  Staleness is checked lazily at the next allocation (and
    defensively at commit): if the metalog's epoch moved past the
    block's stamp, the unconsumed remainder is discarded and counted —
    at replication = 1 the failed-over cursor already reclaimed those
    numbers (``invalidated_allocations``); at replication > 1 they
    become a permanent hole the committed tail max-advances over.
    """

    name = "leased-ranges"

    def __init__(self, metalog: Metalog, block: int = 64):
        super().__init__(metalog)
        if block < 1:
            raise ConfigError("sequencer_block must be >= 1")
        self.block = int(block)
        self._lease: Optional[LeasedBlock] = None
        self._cursor = 0
        self.blocks_leased = 0
        self.invalidated_blocks = 0
        self.invalidated_seqnums = 0

    @property
    def current_block(self) -> Optional[LeasedBlock]:
        return self._lease

    def _discard_if_stale(self) -> None:
        lease = self._lease
        if lease is None or lease.epoch == self.metalog.epoch:
            return
        remaining = lease.end - self._cursor + 1
        if remaining > 0:
            self.invalidated_seqnums += remaining
        self.invalidated_blocks += 1
        self._lease = None

    def assign(self, epoch: Optional[int] = None) -> int:
        self._discard_if_stale()
        lease = self._lease
        if lease is None or self._cursor > lease.end:
            start = self.metalog.assign_block(self.block, epoch)
            lease = LeasedBlock(
                start, start + self.block - 1, self.metalog.epoch
            )
            self._lease = lease
            self._cursor = start
            self.blocks_leased += 1
        seqnum = self._cursor
        self._cursor += 1
        return seqnum

    def commit(self, seqnum: int) -> None:
        lease = self._lease
        if (lease is not None and lease.contains(seqnum)
                and lease.epoch != self.metalog.epoch):
            # A stale block must never advance the committed tail; the
            # metalog's own fence raises (and counts) the rejection.
            self.metalog.check_epoch(lease.epoch, op="commit")
        self.metalog.commit(seqnum)

    @property
    def next_seqnum(self) -> int:
        # The *logical* next position is the block cursor; the metalog's
        # raw cursor already sits at the block end.  Exhausted or stale
        # blocks fall back to the metalog (identical after a refill).
        lease = self._lease
        if (lease is not None and lease.epoch == self.metalog.epoch
                and self._cursor <= lease.end):
            return self._cursor
        return self.metalog.next_seqnum

    def stats(self) -> Dict[str, object]:
        return {
            "sequencer": self.name,
            "block": self.block,
            "blocks_leased": self.blocks_leased,
            "invalidated_blocks": self.invalidated_blocks,
            "invalidated_seqnums": self.invalidated_seqnums,
        }


# ---------------------------------------------------------------------------
# Strategy table
# ---------------------------------------------------------------------------

#: Factory signature: ``(metalog, storage_config) -> Sequencer`` where
#: ``storage_config`` is a :class:`~repro.config.StorageSizeConfig`.
SequencerFactory = Callable[[Metalog, object], Sequencer]

_SEQUENCERS: Dict[str, SequencerFactory] = {
    "monolith": lambda metalog, storage: MonolithSequencer(metalog),
    "batched": lambda metalog, storage: BatchedSequencer(
        metalog,
        batch=getattr(storage, "sequencer_batch", 8),
        hold_ms=getattr(storage, "sequencer_hold_ms", 0.2),
    ),
    "leased-ranges": lambda metalog, storage: LeasedRangeSequencer(
        metalog, block=getattr(storage, "sequencer_block", 64)
    ),
}


def available_sequencers() -> List[str]:
    return sorted(_SEQUENCERS)


def build_sequencer(name: str, metalog: Metalog,
                    storage: object) -> Sequencer:
    """Build the strategy ``StorageSizeConfig.sequencer`` names."""
    factory = _SEQUENCERS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown sequencer {name!r}; "
            f"available: {available_sequencers()}"
        )
    return factory(metalog, storage)
