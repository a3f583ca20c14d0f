"""Node-level crash recovery (Sections 4.5 and 7).

The paper's fault-tolerance claim is that a crashed SSF is recovered by
*another node* re-executing it against the step log.  This package adds
the machinery the DES needs to exercise that end to end:

* :class:`~repro.recovery.lease.LeaseManager` — per-node heartbeat
  processes plus the gateway's lease-expiry failure detector, so
  detection time is a first-class simulated cost (Boki-style engine
  fail-over; Jia & Witchel, SOSP 2021);
* :class:`~repro.recovery.coordinator.RecoveryCoordinator` — scans for
  SSFs orphaned by a dead node and re-dispatches them to survivors,
  where the existing protocol replay paths (symmetric replay vs.
  log-free re-execution) finish the job.

The platform side — node crash/restart events, in-flight process
interruption, cache loss — lives in :mod:`repro.harness.platform`; the
``failover`` experiment in :mod:`repro.harness.failover` sweeps lease
duration × crash time × protocol.

:class:`~repro.recovery.storage.StorageChaosController` extends the
same discipline to the storage plane itself: sequencer failover behind
epoch fencing, shard-replica loss and repair/rebuild, and KV-partition
loss and journal replay, driven as timed DES events and audited by the
``storagechaos`` experiment in :mod:`repro.harness.storagechaos`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".coordinator": ("Orphan", "RecoveryCoordinator"),
    ".lease": ("LeaseManager", "LeaseTable"),
    ".storage": ("STORAGE_COMPONENTS", "StorageChaosController"),
})

__all__ = [
    "LeaseManager",
    "LeaseTable",
    "Orphan",
    "RecoveryCoordinator",
    "STORAGE_COMPONENTS",
    "StorageChaosController",
]
