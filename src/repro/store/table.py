"""Table-level snapshot reads for Halfmoon-read.

The remark in Section 4.1 explains how table queries (scan / join /
aggregate) work under multi-versioning: first use ``logReadPrev`` on each
object's write log to collect the version numbers visible at a timestamp —
this list *is* a consistent snapshot of the table — then fetch those
versions.  Individual version numbers are unordered; only the write log
orders them, which is why the snapshot must be assembled through the log.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List

from ..tags import object_tag
from .versioned import MultiVersionStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..storageplane.sharded_log import ShardedLog


class TableIndex:
    """Registry of which keys belong to which logical table.

    The paper suggests caching the database index in the logging layer as
    an optimisation; here the index is an explicit substrate object that
    applications register keys into.
    """

    def __init__(self):
        self._tables: Dict[str, List[str]] = {}

    def register(self, table: str, key: str) -> None:
        keys = self._tables.setdefault(table, [])
        if key not in keys:
            keys.append(key)

    def keys_of(self, table: str) -> List[str]:
        return list(self._tables.get(table, []))

    def tables(self) -> List[str]:
        return list(self._tables)


class TableSnapshotReader:
    """Assembles consistent table snapshots at a log timestamp."""

    def __init__(self, log: ShardedLog, mv_store: MultiVersionStore,
                 index: TableIndex):
        self._log = log
        self._mv = mv_store
        self._index = index

    def snapshot_versions(self, table: str, max_seqnum: int) -> Dict[str, str]:
        """Map each key of ``table`` to the version number visible at
        ``max_seqnum``.  Keys with no committed write by then are omitted."""
        versions: Dict[str, str] = {}
        for key in self._index.keys_of(table):
            record = self._log.read_prev(object_tag(key), max_seqnum)
            if record is not None and "version" in record.data:
                versions[key] = record["version"]
        return versions

    def scan(self, table: str, max_seqnum: int) -> Dict[str, Any]:
        """Read every visible row of ``table`` as of ``max_seqnum``."""
        rows: Dict[str, Any] = {}
        for key, version_number in self.snapshot_versions(
            table, max_seqnum
        ).items():
            rows[key] = self._mv.read_version(key, version_number)
        return rows

    def aggregate(
        self,
        table: str,
        max_seqnum: int,
        fn: Callable[[Iterable[Any]], Any],
    ) -> Any:
        """Apply ``fn`` over all visible row values (e.g. ``sum``)."""
        return fn(self.scan(table, max_seqnum).values())
