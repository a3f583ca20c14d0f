"""Log-shard replica sets: write quorums, promotion, re-replication.

At ``replication = R > 1`` every log shard keeps its per-tag sub-stream
indexes on ``R`` replicas.  An append only returns once a **majority**
of replicas acknowledged it (we model the quorum as "a majority must be
live; every live replica applies synchronously" — dead replicas miss
updates and are repaired by copy).  Reads fail over to any live replica:
when the serving replica dies, a survivor is *promoted* by swapping the
shard's stream table to the survivor's copy, so readers never observe a
gap.  A crashed replica rejoins by **re-replication**: a deep copy of a
survivor's stream table.

The replica content is only the sub-stream indexes (seqnum lists +
trimmed counts).  Record *bodies* live in the sharded log's global
record directory keyed by seqnum — mirroring Boki, where bodies are
stored once and index replicas reference them — so re-replication moves
index state only.

With ``replication = 1`` (the paper-faithful default) none of this is
instantiated; a lost shard is instead rebuilt from the record directory
and the metalog's trim directory (see ``ShardedLog.rebuild_shard``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .sharded_log import LogShard, _Stream


def _copy_streams(streams: Dict[str, _Stream]) -> Dict[str, _Stream]:
    out: Dict[str, _Stream] = {}
    for tag, stream in streams.items():
        dup = _Stream()
        dup.seqnums = list(stream.seqnums)
        dup.trimmed_count = stream.trimmed_count
        out[tag] = dup
    return out


class ShardReplicaSet:
    """R copies of one shard's stream table; copy 0 starts as serving."""

    __slots__ = ("shard", "replication", "copies", "live", "primary",
                 "promotions", "repairs")

    def __init__(self, shard: LogShard, replication: int):
        if replication < 2:
            raise ValueError("ShardReplicaSet requires replication >= 2")
        self.shard = shard
        self.replication = int(replication)
        #: ``copies[primary] is shard.streams`` at all times.
        self.copies: List[Dict[str, _Stream]] = [shard.streams] + [
            _copy_streams(shard.streams) for _ in range(replication - 1)
        ]
        self.live = [True] * replication
        self.primary = 0
        self.promotions = 0
        self.repairs = 0

    # -- membership ------------------------------------------------------

    @property
    def live_count(self) -> int:
        return sum(self.live)

    @property
    def quorum(self) -> int:
        return self.replication // 2 + 1

    @property
    def has_quorum(self) -> bool:
        return self.live_count >= self.quorum

    @property
    def all_dead(self) -> bool:
        return self.live_count == 0

    def live_replicas(self) -> List[int]:
        return [i for i, alive in enumerate(self.live) if alive]

    # -- mirroring (write path) ------------------------------------------

    def mirror_append(self, tag: str, seqnum: int) -> None:
        """Apply one sub-stream append to every live non-serving copy.

        The serving copy already received it through the shard's normal
        install path; dead copies miss it and are repaired wholesale.
        """
        primary = self.primary
        for i, alive in enumerate(self.live):
            if not alive or i == primary:
                continue
            streams = self.copies[i]
            stream = streams.get(tag)
            if stream is None:
                stream = streams[tag] = _Stream()
            stream.append(seqnum)

    def mirror_trim(self, tag: str, cut: int) -> None:
        """Apply a head trim of ``cut`` records to live non-serving copies."""
        primary = self.primary
        for i, alive in enumerate(self.live):
            if not alive or i == primary:
                continue
            stream = self.copies[i].get(tag)
            if stream is None:
                continue
            del stream.seqnums[:cut]
            stream.trimmed_count += cut

    # -- failure / recovery ----------------------------------------------

    def crash(self, replica: Optional[int] = None) -> int:
        """Kill one replica (the serving one by default, to exercise
        promotion).  Returns the index killed.

        If the serving replica dies and a survivor exists, the survivor
        is promoted immediately: the shard's stream table pointer swaps
        to the survivor's copy, so reads continue without a gap.  The
        caller is responsible for evicting node-local record caches —
        the promoted copy serves at a new placement.
        """
        if replica is None:
            replica = self.primary
        if not self.live[replica]:
            return replica
        self.live[replica] = False
        if replica == self.primary:
            survivors = self.live_replicas()
            if survivors:
                self.primary = survivors[0]
                self.shard.streams = self.copies[self.primary]
                self.promotions += 1
        return replica

    def repair(self, replica: int) -> bool:
        """Re-replicate a dead copy from a survivor; ``True`` on success."""
        if self.live[replica]:
            return True
        survivors = self.live_replicas()
        if not survivors:
            return False
        self.copies[replica] = _copy_streams(self.copies[survivors[0]])
        self.live[replica] = True
        self.repairs += 1
        return True

    # -- audit support ---------------------------------------------------

    def divergence(self) -> int:
        """Number of (tag, content) mismatches across live copies.

        Zero on a healthy set: every live replica must hold identical
        sub-stream indexes once appends/trims/repairs have settled.
        """
        live = self.live_replicas()
        if len(live) < 2:
            return 0
        base = self.copies[live[0]]
        mismatches = 0
        for i in live[1:]:
            other = self.copies[i]
            if set(base) != set(other):
                mismatches += len(set(base) ^ set(other))
            for tag, stream in base.items():
                peer = other.get(tag)
                if peer is None:
                    continue
                if (peer.seqnums != stream.seqnums
                        or peer.trimmed_count != stream.trimmed_count):
                    mismatches += 1
        return mismatches
