"""Storage-side fault injection: per-component rates and link partitions.

The worker-side :class:`~repro.faults.injector.FaultInjector` models
"my request misbehaved somewhere"; this module models *which storage
component* misbehaved.  Two mechanisms, both armed by
:class:`~repro.config.StorageChaosConfig`:

* **Per-component rates** — every log shard and KV partition owns a
  dedicated RNG stream, derived through
  :func:`repro.harness.parallel.seed_for` from the run seed and the
  component's identity.  Faults are therefore attributable (injected
  counters name their component like the trace spans' ``shard=`` /
  ``partition=`` arguments, e.g. ``log:error:shard=2``), independent
  of the worker-side ``infra-faults`` stream, and — because the
  derivation never depends on scheduling — bit-identical whether a
  sweep runs serial or under ``--jobs N``.

* **A seeded link-partition schedule** — windows during which a
  *directional link* is severed: ``worker↔shard`` (every operation to
  the shard fails from the caller's side) or ``metalog↔shard`` (the
  sequencer cannot reach the shard, so only *appends* touching it fail
  while reads pass) — the asymmetry that drives the PR-1 retry/breaker
  paths differently per protocol.  Both present as timeouts: the
  request vanishes, nothing applies, so injection alone can never
  duplicate an effect (same omission-only argument as the worker-side
  injector).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..config import StorageChaosConfig
from .injector import FAULT_ERROR, FAULT_TIMEOUT, FaultDecision, HEALTHY

#: Component kinds, matching the services layer's span arguments.
COMPONENT_SHARD = "shard"
COMPONENT_PARTITION = "partition"


def _component_seed(base_seed: int, kind: str, index: int) -> int:
    # Local import: harness.parallel imports nothing from faults, but
    # keep the package layering acyclic at import time anyway.
    from ..harness.parallel import seed_for

    return seed_for(base_seed, ("storage-faults", kind, index))


@dataclass(frozen=True)
class LinkWindow:
    """One severed-link window: ``[start_ms, end_ms)`` on a component."""

    start_ms: float
    end_ms: float
    side: str          # "worker" or "metalog"
    kind: str          # COMPONENT_SHARD or COMPONENT_PARTITION
    component: int

    def covers(self, now_ms: float) -> bool:
        return self.start_ms <= now_ms < self.end_ms


class LinkPartitionSchedule:
    """Seeded schedule of asymmetric link partitions.

    Windows are drawn once, up front, from a dedicated stream — the
    schedule is a pure function of ``(base_seed, topology, config)`` and
    never consumes draws during the run.
    """

    def __init__(
        self,
        config: StorageChaosConfig,
        base_seed: int,
        num_shards: int,
        num_partitions: int,
    ):
        self.windows: List[LinkWindow] = []
        if config.partition_windows <= 0:
            return
        rng = np.random.default_rng(
            _component_seed(base_seed, "netsplit", 0)
        )
        horizon = max(config.partition_horizon_ms, config.partition_window_ms)
        span = max(horizon - config.partition_window_ms, 0.0)
        for _ in range(config.partition_windows):
            start = float(rng.random()) * span
            # Shards take most of the severing (they sit on both the
            # worker and the metalog side); partitions only see the
            # worker side — there is no metalog↔partition link.
            if num_shards > 0 and (num_partitions == 0
                                   or float(rng.random()) < 0.7):
                kind = COMPONENT_SHARD
                component = int(rng.integers(0, num_shards))
                side = ("worker" if float(rng.random()) < 0.5
                        else "metalog")
            else:
                kind = COMPONENT_PARTITION
                component = int(rng.integers(0, max(num_partitions, 1)))
                side = "worker"
            self.windows.append(LinkWindow(
                start_ms=start,
                end_ms=start + config.partition_window_ms,
                side=side,
                kind=kind,
                component=component,
            ))

    def severed(
        self, now_ms: float, kind: str, component: int, is_write: bool
    ) -> bool:
        """Is the link to ``(kind, component)`` severed at ``now_ms``?

        A ``metalog``-side window only severs *writes* (the sequencer
        cannot replicate the assignment to the shard); a ``worker``-side
        window severs everything.
        """
        for w in self.windows:
            if (w.kind == kind and w.component == component
                    and w.covers(now_ms)
                    and (w.side == "worker" or is_write)):
                return True
        return False

    def __len__(self) -> int:
        return len(self.windows)


class StorageFaultInjector:
    """Per-shard / per-partition fault plans plus the link schedule."""

    def __init__(
        self,
        config: StorageChaosConfig,
        base_seed: int,
        num_shards: int,
        num_partitions: int,
    ):
        config.validate()
        self.config = config
        self._shard_rngs = [
            np.random.default_rng(
                _component_seed(base_seed, COMPONENT_SHARD, i)
            )
            for i in range(num_shards)
        ]
        self._partition_rngs = [
            np.random.default_rng(
                _component_seed(base_seed, COMPONENT_PARTITION, i)
            )
            for i in range(num_partitions)
        ]
        self.schedule = LinkPartitionSchedule(
            config, base_seed, num_shards, num_partitions
        )
        #: Injected counts keyed ``"<service>:<kind>:<component>=<i>"``.
        self.injected: Dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        cfg = self.config
        return cfg.enabled and (
            cfg.shard_error_rate > 0.0 or cfg.shard_timeout_rate > 0.0
            or cfg.partition_error_rate > 0.0
            or cfg.partition_timeout_rate > 0.0
            or len(self.schedule) > 0
        )

    def _note(self, service: str, kind: str, component_kind: str,
              component: int) -> None:
        key = f"{service}:{kind}:{component_kind}={component}"
        self.injected[key] = self.injected.get(key, 0) + 1

    def draw(
        self,
        kind: str,
        component: int,
        now_ms: float,
        is_write: bool,
    ) -> FaultDecision:
        """Decide the fate of one call to ``(kind, component)``.

        The link schedule is consulted first (severed ⇒ timeout, no RNG
        draw — the schedule must not perturb the per-component
        streams); then the component's own error/timeout rates.
        """
        cfg = self.config
        service = "log" if kind == COMPONENT_SHARD else "store"
        if self.schedule.severed(now_ms, kind, component, is_write):
            self._note(service, "netsplit", kind, component)
            return FaultDecision(FAULT_TIMEOUT)
        if kind == COMPONENT_SHARD:
            error_rate = cfg.shard_error_rate
            timeout_rate = cfg.shard_timeout_rate
            rngs: List[np.random.Generator] = self._shard_rngs
        else:
            error_rate = cfg.partition_error_rate
            timeout_rate = cfg.partition_timeout_rate
            rngs = self._partition_rngs
        if (error_rate <= 0.0 and timeout_rate <= 0.0) or not rngs:
            return HEALTHY
        roll = float(rngs[component].random())
        if roll < error_rate:
            self._note(service, FAULT_ERROR, kind, component)
            return FaultDecision(FAULT_ERROR)
        if roll < error_rate + timeout_rate:
            self._note(service, FAULT_TIMEOUT, kind, component)
            return FaultDecision(FAULT_TIMEOUT)
        return HEALTHY

    def injected_total(self) -> int:
        return sum(self.injected.values())
