"""Shared-log substrate: Boki-style logging layer with tagged sub-streams.

Exposes the five log APIs from Figure 3 of the paper — ``append``
(``logAppend``), ``read_prev``/``read_next`` (``logReadPrev``/``Next``),
``trim`` (``logTrim``), and ``cond_append`` (``logCondAppend``) — plus the
function-node record cache that gives cached log reads their low latency.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".cache": ("RecordCache",),
    ".log": ("SharedLog",),
    ".record": ("LogRecord",),
})

__all__ = ["LogRecord", "RecordCache", "SharedLog"]
