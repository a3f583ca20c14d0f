"""Analytical models from the paper: overhead (Section 4.6), protocol
choice, and recovery cost (Section 7).
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".advisor": (
        "HALFMOON_READ", "HALFMOON_WRITE", "ProtocolAdvisor", "Recommendation",
        "WorkloadObserver",
    ),
    ".overhead_model": (
        "WorkloadProfile", "read_log_population",
        "runtime_boundary_read_ratio", "runtime_extra_cost_halfmoon_read",
        "runtime_extra_cost_halfmoon_write", "storage_boundary_read_ratio",
        "storage_halfmoon_read", "storage_halfmoon_write",
        "write_log_population",
    ),
    ".recovery": (
        "break_even_failure_rate", "expected_cost_halfmoon",
        "expected_cost_symmetric", "expected_rounds", "halfmoon_wins",
    ),
})

__all__ = [
    "HALFMOON_READ",
    "HALFMOON_WRITE",
    "ProtocolAdvisor",
    "Recommendation",
    "WorkloadObserver",
    "WorkloadProfile",
    "break_even_failure_rate",
    "expected_cost_halfmoon",
    "expected_cost_symmetric",
    "expected_rounds",
    "halfmoon_wins",
    "read_log_population",
    "runtime_boundary_read_ratio",
    "runtime_extra_cost_halfmoon_read",
    "runtime_extra_cost_halfmoon_write",
    "storage_boundary_read_ratio",
    "storage_halfmoon_read",
    "storage_halfmoon_write",
    "write_log_population",
]
