"""Consistency tooling: histories, effective orders, and an SC checker.

Turns the paper's consistency claims (Propositions 4.7 and 4.8) into
executable checks over recorded protocol executions.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".checker": (
        "find_sequential_witness", "is_legal_order", "is_linearizable",
        "validate_linearizable", "validate_total_order",
    ),
    ".effective_order": (
        "commutable_log_free_writes", "halfmoon_read_order",
        "halfmoon_write_order",
    ),
    ".events": ("READ", "WRITE", "Event", "History"),
    ".explorer": (
        "ExplorationResult", "ProtocolExplorer", "Violation",
        "all_interleavings",
    ),
    ".trace": ("TracedSession",),
})

__all__ = [
    "Event",
    "ExplorationResult",
    "ProtocolExplorer",
    "Violation",
    "all_interleavings",
    "History",
    "READ",
    "TracedSession",
    "WRITE",
    "commutable_log_free_writes",
    "find_sequential_witness",
    "halfmoon_read_order",
    "halfmoon_write_order",
    "is_legal_order",
    "is_linearizable",
    "validate_linearizable",
    "validate_total_order",
]
