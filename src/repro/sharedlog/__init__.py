"""Shared-log records and the function-node record cache.

The log itself — the five log APIs from Figure 3 of the paper — is
:class:`repro.storageplane.ShardedLog`; this package keeps the
:class:`LogRecord` it stores and the :class:`RecordCache` that gives
cached log reads their low latency.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cache": ("RecordCache",),
    ".record": ("LogRecord",),
    # ``SharedLog`` is the one log, ``ShardedLog``, under its old name.
    # Its one reader is benchmarks/e2e/cells.py (``SharedLog()``, no
    # arguments); ROADMAP item 6 stops that import and deletes the alias.
    "..storageplane.sharded_log": ("SharedLog",),
})

__all__ = ["LogRecord", "RecordCache", "SharedLog"]
