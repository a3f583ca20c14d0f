"""Infrastructure fault injection and resilience policies.

The crash machinery in :mod:`repro.runtime.failures` models the *first*
fault dimension: function instances dying at operation boundaries.  This
package models the *second*: the substrates themselves misbehaving —
transient log/store errors, per-operation timeouts, and gray-failure
latency inflation — plus the policy layer that keeps the system usable
while they do:

* :class:`FaultInjector` — seeded, per-operation fault plans drawn from
  the platform's :class:`~repro.simulation.rng.RngRegistry`, so chaos
  runs are exactly reproducible;
* :mod:`.retry` — bounded retries with exponential backoff,
  deterministic jitter, per-attempt timeouts, and a per-operation
  deadline, read from the platform's ``ResilienceConfig``;
* :class:`CircuitBreaker` — trips after consecutive substrate failures
  and enables graceful degradation (cache-served log reads, droppable
  background appends) until the service recovers.

The wiring lives in :class:`repro.runtime.services.InstanceServices`,
so every protocol inherits resilience without changes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".breaker": ("BreakerState", "CircuitBreaker"),
    ".injector": (
        "FAULT_ERROR", "FAULT_GRAY", "FAULT_TIMEOUT", "FaultDecision",
        "FaultInjector",
    ),
    ".storage": (
        "LinkPartitionSchedule", "LinkWindow", "StorageFaultInjector",
    ),
})

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FAULT_ERROR",
    "FAULT_GRAY",
    "FAULT_TIMEOUT",
    "FaultDecision",
    "FaultInjector",
    "LinkPartitionSchedule",
    "LinkWindow",
    "StorageFaultInjector",
]
