"""The shared-log abstraction (Boki-style logging layer).

Implements the five log APIs from Figure 3 of the paper:

* :meth:`SharedLog.append`       — ``logAppend(tags, record) -> seqnum``
* :meth:`SharedLog.read_prev`    — ``logReadPrev(tag, max_seqnum)``
* :meth:`SharedLog.read_next`    — ``logReadNext(tag, min_seqnum)``
* :meth:`SharedLog.trim`         — ``logTrim(tag, seqnum)``
* :meth:`SharedLog.cond_append`  — ``logCondAppend(tags, record, condTag,
  condPos)`` (Section 5.1), the compare-and-swap-like primitive Halfmoon
  adds to resolve races between peer instances of the same SSF invocation.

The log enforces a single global total order via an internal sequencer.
Each tag names a sub-stream; a record may belong to several sub-streams,
and sub-stream order is inherited from the main log's seqnum order.
Storage is accounted once per record regardless of how many sub-streams
index it, matching how Boki stores the record body once.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, List, Mapping, Optional, Sequence

from ..errors import (
    ConditionalAppendError,
    LogError,
    ProtocolError,
    TrimmedError,
)
from .record import LogRecord


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


class SharedLog:
    """In-memory shared log with tagged sub-streams and a global sequencer."""

    def __init__(self, meta_bytes: int = 48, first_seqnum: int = 1):
        self._meta_bytes = int(meta_bytes)
        self._next_seqnum = int(first_seqnum)
        self._records: Dict[int, LogRecord] = {}
        self._live_tag_refs: Dict[int, int] = {}
        self._streams: Dict[str, _Stream] = {}
        self._storage_bytes = 0
        self._append_count = 0
        self._trim_count = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def next_seqnum(self) -> int:
        """The seqnum the next append will receive."""
        return self._next_seqnum

    @property
    def tail_seqnum(self) -> int:
        """The largest seqnum assigned so far (0 if the log is empty)."""
        return self._next_seqnum - 1

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
        """Bytes held by live records (body counted once, plus metadata)."""
        return self._storage_bytes

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        payload_bytes: int = 0,
    ) -> int:
        """Append a record to every sub-stream in ``tags``; return seqnum."""
        if not tags:
            raise LogError("append requires at least one tag")
        record = LogRecord(
            seqnum=self._next_seqnum,
            tags=tuple(tags),
            data=data,
            payload_bytes=int(payload_bytes),
        )
        self._next_seqnum += 1
        self._install(record)
        return record.seqnum

    def cond_append(
        self,
        tags: Sequence[str],
        data: Mapping[str, Any],
        cond_tag: str,
        cond_pos: int,
        payload_bytes: int = 0,
    ) -> int:
        """Conditional append (Section 5.1).

        Appends only if the new record would land at offset ``cond_pos`` of
        the ``cond_tag`` sub-stream, i.e. the caller's view of its own
        execution history is current.  On conflict the append is undone and
        :class:`ConditionalAppendError` carries the seqnum of the record
        already occupying the expected offset, letting the losing peer
        instance adopt the winner's state.
        """
        if cond_tag not in tags:
            raise LogError("cond_tag must be one of the record's tags")
        stream = self._streams.get(cond_tag)
        next_offset = stream.next_offset if stream is not None else 0
        if next_offset == cond_pos:
            return self.append(tags, data, payload_bytes=payload_bytes)
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
        stream = self._streams.get(tag)
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

    def _install(self, record: LogRecord) -> None:
        self._records[record.seqnum] = record
        self._live_tag_refs[record.seqnum] = len(record.tags)
        for tag in record.tags:
            stream = self._streams.get(tag)
            if stream is None:
                stream = _Stream()
                self._streams[tag] = stream
            stream.append(record.seqnum)
        self._storage_bytes += self._meta_bytes + record.payload_bytes
        self._append_count += 1

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def read_prev(self, tag: str, max_seqnum: int) -> Optional[LogRecord]:
        """Latest record in ``tag``'s sub-stream with seqnum <= max_seqnum.

        Returns ``None`` when the sub-stream has no such record.  Raises
        :class:`TrimmedError` if such records existed but were garbage
        collected — under a correct GC policy (Section 4.5) this indicates
        a protocol bug, so we surface it loudly.
        """
        stream = self._streams.get(tag)
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
        """Earliest record in ``tag``'s sub-stream with seqnum >= min_seqnum."""
        stream = self._streams.get(tag)
        if stream is None:
            return None
        index = bisect.bisect_left(stream.seqnums, min_seqnum)
        if index < len(stream.seqnums):
            return self._records[stream.seqnums[index]]
        return None

    def read_stream(self, tag: str, min_seqnum: int = 0) -> List[LogRecord]:
        """All live records of a sub-stream, in seqnum order."""
        stream = self._streams.get(tag)
        if stream is None:
            return []
        index = bisect.bisect_left(stream.seqnums, min_seqnum)
        return [self._records[s] for s in stream.seqnums[index:]]

    def stream_length(self, tag: str) -> int:
        """Logical length of a sub-stream, including trimmed records."""
        stream = self._streams.get(tag)
        return stream.next_offset if stream is not None else 0

    def stream_tags(self) -> List[str]:
        return list(self._streams)

    # ------------------------------------------------------------------
    # Trim (garbage collection support)
    # ------------------------------------------------------------------

    def trim(self, tag: str, seqnum: int) -> int:
        """Delete records with seqnum <= ``seqnum`` from ``tag``'s stream.

        A record's body is freed once every sub-stream referencing it has
        trimmed it.  Returns the number of records removed from this
        sub-stream.
        """
        stream = self._streams.get(tag)
        if stream is None:
            return 0
        cut = bisect.bisect_right(stream.seqnums, seqnum)
        if cut == 0:
            return 0
        removed = stream.seqnums[:cut]
        del stream.seqnums[:cut]
        stream.trimmed_count += len(removed)
        for sn in removed:
            self._live_tag_refs[sn] -= 1
            if self._live_tag_refs[sn] == 0:
                record = self._records.pop(sn)
                del self._live_tag_refs[sn]
                self._storage_bytes -= self._meta_bytes + record.payload_bytes
                self._trim_count += 1
        return len(removed)
