"""Epoch fencing for the metalog sequencer.

The failure story of the sequencer follows Boki's metalog
reconfiguration: leadership is a **lease**, failover bumps an **epoch**,
and every mutating request carries the epoch its client last observed.
A request stamped with a stale epoch is rejected outright
(:class:`~repro.errors.FencedEpochError`) *before* it takes any effect,
so the client's retry — after refreshing its view — cannot duplicate
state.  This module holds the two client-side pieces:

* :class:`EpochView` — a worker's cached view of the current epoch, the
  thing a fence invalidates and "leader rediscovery" refreshes;
* :class:`LeasedBlock` — a contiguous seqnum range granted under one
  epoch by the ``leased-ranges`` sequencing strategy
  (:mod:`~repro.storageplane.sequencer`).  The epoch stamp is what a
  failover invalidates: a stale block's remainder is discarded and can
  never commit.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StorageUnavailableError
from .metalog import Metalog


@dataclass(frozen=True)
class LeasedBlock:
    """A contiguous seqnum range leased under one sequencer epoch.

    Granted by :meth:`Metalog.assign_block` to the ``leased-ranges``
    sequencing strategy.  The epoch stamp is the fencing handle: a
    failover bumps the metalog's epoch, and any block carrying an older
    stamp is stale — its unconsumed remainder must be discarded, never
    committed.
    """

    start: int
    end: int
    epoch: int

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def contains(self, seqnum: int) -> bool:
        return self.start <= seqnum <= self.end


class EpochView:
    """Client-side cached epoch, refreshed on fence ("rediscovery").

    Workers stamp appends with ``view.epoch``; when a failover fences
    the stamp, the services layer charges a fixed rediscovery cost and
    calls :meth:`refresh` instead of walking the backoff schedule.
    """

    __slots__ = ("_metalog", "_epoch", "refresh_count")

    def __init__(self, metalog: Metalog):
        self._metalog = metalog
        self._epoch = metalog.epoch
        self.refresh_count = 0

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def stale(self) -> bool:
        return self._epoch != self._metalog.epoch

    def refresh(self) -> int:
        """Re-read the current epoch from the (new) leader.

        Raises :class:`~repro.errors.StorageUnavailableError` while no
        leader holds the lease — rediscovery cannot succeed mid-window,
        and the caller falls back to the ordinary retry path.
        """
        if not self._metalog.leader_alive:
            raise StorageUnavailableError(
                "leader rediscovery failed: no metalog leader",
                service="log", op="rediscover",
            )
        self.refresh_count += 1
        self._epoch = self._metalog.epoch
        return self._epoch
