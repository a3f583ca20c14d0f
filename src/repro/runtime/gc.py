"""Garbage collection (Section 4.5).

The GC reclaims two kinds of state:

1. **Step logs of finished SSFs.**  Under Halfmoon-write the lifetime of a
   read-log record equals the lifetime of its SSF, so the entire instance
   stream is trimmed once the invocation completes.

2. **Write logs and object versions** (Halfmoon-read).  A version whose
   commit record has seqnum ``t`` is collectible only when (a) a newer
   record exists in the same object's write log and (b) every SSF whose
   initial cursorTS is below that newer record's seqnum has finished.  The
   scan tracks the frontier ``safe_ts`` satisfying (b) — the smallest
   initial cursorTS among running SSFs — marks, per object stream, the
   newest record below the frontier (the earliest version still
   observable), and deletes everything before the mark together with the
   matching object versions.

Note the asymmetry with condition (a): the marked record itself always
survives, so each object retains at least one readable version.

Node failures interact with condition (b) through the tracker's orphan
state: an SSF whose hosting node died stays *orphaned* (not finished)
until a survivor reclaims it, so ``safe_seqnum`` cannot advance past its
init cursorTS and the takeover replay finds every version it may read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import PartitionUnavailableError, StorageUnavailableError
from ..sharedlog import LogRecord
from ..tags import checkpoint_tag, instance_tag, is_object_tag, tag_key
from .registry import InvocationTracker
from .services import ServiceBackend


@dataclass
class GCStats:
    scans: int = 0
    step_log_records_trimmed: int = 0
    write_log_records_trimmed: int = 0
    versions_deleted: int = 0
    last_safe_seqnum: int = 0
    #: Per-shard trim frontier after the latest scan, straight from the
    #: metalog (shards that never trimmed are absent).  Trims advance
    #: each shard's frontier independently — the regression tests pin
    #: that a trim on shard A never moves (or drops records behind)
    #: shard B's frontier.
    shard_frontiers: Dict[int, int] = field(default_factory=dict)
    #: Durable-KV bookkeeping (storage-chaos runs only): checkpoints
    #: taken and redo-journal entries truncated by them.  Journals stay
    #: bounded by the mutation rate between GC cycles.
    kv_checkpoints: int = 0
    kv_journal_truncated: int = 0

    def total_trimmed(self) -> int:
        return (
            self.step_log_records_trimmed + self.write_log_records_trimmed
        )


class GarbageCollector:
    """Periodically invoked GC function."""

    def __init__(self, backend: ServiceBackend, tracker: InvocationTracker):
        self.backend = backend
        self.tracker = tracker
        self.stats = GCStats()

    def collect(self) -> GCStats:
        """One full GC scan; returns cumulative statistics."""
        log = self.backend.log
        self.stats.scans += 1

        # -- step logs (and read checkpoints) of finished SSFs ----------
        for instance_id in self.tracker.drain_finished():
            trimmed = log.trim(instance_tag(instance_id), log.tail_seqnum)
            trimmed += log.trim(
                checkpoint_tag(instance_id), log.tail_seqnum
            )
            self.stats.step_log_records_trimmed += trimmed

        # -- write logs + object versions --------------------------------
        safe_ts = self.tracker.safe_seqnum(log_frontier=log.next_seqnum)
        self.stats.last_safe_seqnum = safe_ts
        for tag in log.stream_tags():
            if not is_object_tag(tag):
                continue
            try:
                records = log.read_stream(tag)
            except StorageUnavailableError:
                # The tag's shard is down mid-chaos; skip it this cycle
                # (conservative under-collection, retried next scan).
                continue
            marked = self._mark(records, safe_ts)
            if marked <= 0:
                continue
            key = tag_key(tag)
            try:
                for record in records[:marked]:
                    version = record.get("version")
                    if (version is not None
                            and self.backend.mv.delete_version(
                                key, version)):
                        self.stats.versions_deleted += 1
            except PartitionUnavailableError:
                # The object's KV partition is down mid-chaos; keep the
                # write log intact too so the retry next cycle still
                # finds every version it must delete.
                continue
            horizon = records[marked - 1].seqnum
            self.stats.write_log_records_trimmed += log.trim(tag, horizon)

        # Publish where each shard's reclamation horizon now sits (the
        # metalog owns the authoritative frontiers).
        self.stats.shard_frontiers = log.shard_trim_frontiers()

        # -- durable KV: checkpoint partitions, truncate redo journals --
        kv = self.backend.kv
        if kv.durability:
            for index in range(kv.num_partitions):
                if index in kv.down_partitions():
                    continue  # its journal is what the rebuild needs
                self.stats.kv_journal_truncated += (
                    kv.checkpoint_partition(index)
                )
                self.stats.kv_checkpoints += 1
        return self.stats

    @staticmethod
    def _mark(records: List[LogRecord], safe_ts: int) -> int:
        """Index of the newest record with seqnum < ``safe_ts``.

        Records before this index are unobservable and collectible; the
        marked record is the earliest version a current or future SSF
        might still read."""
        marked = -1
        for i, record in enumerate(records):
            if record.seqnum < safe_ts:
                marked = i
            else:
                break
        return marked
