"""Storage-plane consistency checker.

Invariant audit run after a chaos cell has healed: whatever was killed
and recovered, the plane must end in a state indistinguishable (to the
protocols) from one that never failed.  The checks mirror the
guarantees each recovery mechanism claims:

* **stream integrity** — every sub-stream's seqnums are strictly
  increasing, resolve in the record directory, lie above the shard's
  trim frontier, and the stream's offset arithmetic is intact (a
  rebuild that forgot ``trimmed_count`` would corrupt every later
  ``logCondAppend``);
* **reference counts** — the metalog's per-record refcount equals the
  number of sub-streams actually indexing the record: a crash between
  install steps must never leak or double-free a reference;
* **replica agreement** — at R>1, all live copies of a shard hold
  identical indexes once repairs settle;
* **liveness** — no shard or partition is still down, no quorum still
  lost, the sequencer leader is alive;
* **partition rebuild fidelity** — compared separately via
  :func:`diff_partition_snapshots` against a pre-crash snapshot.

Returns a report dict; ``report["anomalies"]`` empty ⇔ consistent.
"""

from __future__ import annotations

from typing import Any, Dict, List


def audit_sharded_log(log) -> List[str]:
    """Invariant check of a :class:`ShardedLog` + its metalog."""
    anomalies: List[str] = []
    metalog = log.metalog
    refcounts = metalog.reference_counts()
    memberships: Dict[int, int] = {}
    for shard_id in range(log.num_shards):
        shard = log.shard(shard_id)
        for tag, stream in shard.streams.items():
            seqs = stream.seqnums
            if any(b <= a for a, b in zip(seqs, seqs[1:])):
                anomalies.append(
                    f"stream {tag!r} (shard {shard_id}): seqnums not "
                    "strictly increasing"
                )
            if stream.next_offset != stream.trimmed_count + len(seqs):
                anomalies.append(
                    f"stream {tag!r} (shard {shard_id}): offset origin "
                    "inconsistent"
                )
            for sn in seqs:
                memberships[sn] = memberships.get(sn, 0) + 1
                if sn not in log._records:
                    anomalies.append(
                        f"stream {tag!r} (shard {shard_id}): seqnum {sn} "
                        "missing from record directory"
                    )
            trimmed, highest = metalog.stream_trim(tag)
            if seqs and seqs[0] <= highest:
                anomalies.append(
                    f"stream {tag!r} (shard {shard_id}): head {seqs[0]} "
                    f"at or below its trim record {highest} — a rebuild "
                    "resurrected garbage-collected records"
                )
            if stream.trimmed_count < trimmed:
                anomalies.append(
                    f"stream {tag!r} (shard {shard_id}): offset origin "
                    f"{stream.trimmed_count} behind the metalog trim "
                    f"directory {trimmed}"
                )
        rs = log.replica_set(shard_id)
        if rs is not None:
            div = rs.divergence()
            if div:
                anomalies.append(
                    f"shard {shard_id}: {div} replica divergences"
                )
            if not rs.has_quorum:
                anomalies.append(f"shard {shard_id}: quorum still lost")
    for sn, refs in refcounts.items():
        seen = memberships.get(sn, 0)
        if seen != refs:
            anomalies.append(
                f"seqnum {sn}: metalog refcount {refs} != "
                f"{seen} live stream memberships"
            )
    for sn in memberships:
        if sn not in refcounts:
            anomalies.append(
                f"seqnum {sn}: indexed by a stream but has no refcount"
            )
    if log.down_shards():
        anomalies.append(f"shards still down: {sorted(log.down_shards())}")
    if not metalog.leader_alive:
        anomalies.append("metalog leader still down")
    if metalog.next_seqnum <= metalog.committed_tail:
        anomalies.append(
            f"allocation cursor {metalog.next_seqnum} at or below the "
            f"committed tail {metalog.committed_tail}"
        )
    return anomalies


def audit_partitioned_kv(kv) -> List[str]:
    anomalies: List[str] = []
    if kv.down_partitions():
        anomalies.append(
            f"partitions still down: {sorted(kv.down_partitions())}"
        )
    for index in range(kv.num_partitions):
        store = kv.partition(index)
        actual = sum(obj.value_bytes for obj in store._data.values())
        if store.storage_bytes() != actual:
            anomalies.append(
                f"partition {index}: byte accounting "
                f"{store.storage_bytes()} != {actual}"
            )
    summed = sum(kv.partition_bytes(i) for i in range(kv.num_partitions))
    if kv.storage_bytes() != summed:
        anomalies.append(
            f"kv running byte total {kv.storage_bytes()} != {summed} "
            "summed over partitions"
        )
    return anomalies


def diff_partition_snapshots(
    before: Dict[str, Any], after: Dict[str, Any]
) -> List[str]:
    """Differences between pre-crash and post-rebuild partition state.

    Empty ⇔ the rebuild restored every key, value, and version exactly.
    """
    diffs: List[str] = []
    for key in before.keys() - after.keys():
        diffs.append(f"key {key!r} lost by rebuild")
    for key in after.keys() - before.keys():
        diffs.append(f"key {key!r} resurrected by rebuild")
    for key in before.keys() & after.keys():
        if before[key] != after[key]:
            diffs.append(
                f"key {key!r} diverged: {before[key]!r} -> {after[key]!r}"
            )
    return diffs


def storage_consistency_report(plane) -> Dict[str, Any]:
    """Full-plane invariant audit; ``anomalies == []`` ⇔ consistent."""
    log, kv = plane.log, plane.kv
    checked: Dict[str, Any] = {
        "log_shards": log.num_shards,
        "replication": log.replication,
        "epoch": log.epoch,
        "live_records": log.live_record_count,
        "kv_partitions": kv.num_partitions,
        "kv_rebuilds": kv.rebuilds,
    }
    anomalies = audit_sharded_log(log) + audit_partitioned_kv(kv)
    return {"anomalies": anomalies, "checked": checked}
