"""Crash-injection policies.

A policy produces, for each execution attempt of an SSF instance, a fault
hook that the services layer calls at every checkpoint (before and after
each externally visible effect).  Raising :class:`CrashError` there kills
the attempt at exactly that boundary; the runtime then re-executes the
instance, which is how the exactly-once machinery gets exercised.

Three policies cover the experiments:

* :class:`NoCrashes` — failure-free runs (most benchmarks);
* :class:`ScriptedCrashes` — deterministic crashes at chosen checkpoints
  of chosen attempts (unit and property tests enumerate *every* boundary);
* :class:`BernoulliCrashes` — the Section 7 recovery-cost model: each
  round (attempt) crashes with probability ``f`` at a uniformly chosen
  checkpoint.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..errors import CrashError
from .services import FaultHook

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class CrashPolicy:
    """Base policy: yields a fault hook per (instance, attempt)."""

    def hook_for(self, instance_id: str,
                 attempt: int) -> Optional[FaultHook]:
        return None


class NoCrashes(CrashPolicy):
    """Failure-free policy: never installs a fault hook."""


class ScriptedCrashes(CrashPolicy):
    """Crash attempt ``a`` at its ``n``-th checkpoint, per the script.

    ``script`` maps attempt number (1-based) to the checkpoint ordinal
    (1-based) at which that attempt dies.  Attempts absent from the script
    run to completion.  The same script applies to every instance unless
    ``instance_id`` is given.
    """

    def __init__(self, script: Dict[int, int],
                 instance_id: Optional[str] = None):
        self.script = dict(script)
        self.instance_id = instance_id
        self.crashes_fired = 0

    def hook_for(self, instance_id: str,
                 attempt: int) -> Optional[FaultHook]:
        if self.instance_id is not None and instance_id != self.instance_id:
            return None
        target = self.script.get(attempt)
        if target is None:
            return None
        counter = {"n": 0}

        def hook(label: str) -> None:
            counter["n"] += 1
            if counter["n"] == target:
                self.crashes_fired += 1
                raise CrashError(
                    f"scripted crash: attempt {attempt}, "
                    f"checkpoint {target} ({label})"
                )

        return hook


class CrashOnceAtEvery(CrashPolicy):
    """Helper for exhaustive sweeps: crash the first attempt at checkpoint
    ``n``; later attempts run clean.  Tests iterate ``n`` over the whole
    range of checkpoints to cover every crash window."""

    def __init__(self, checkpoint: int):
        self._scripted = ScriptedCrashes({1: checkpoint})

    def hook_for(self, instance_id: str,
                 attempt: int) -> Optional[FaultHook]:
        return self._scripted.hook_for(instance_id, attempt)

    @property
    def crashes_fired(self) -> int:
        return self._scripted.crashes_fired


class BernoulliCrashes(CrashPolicy):
    """Section 7's Bernoulli process: each round crashes with probability
    ``f``.  A crashing round dies at a checkpoint drawn uniformly from
    ``[1, horizon]``; if the draw exceeds the attempt's actual number of
    checkpoints the attempt survives (a crash "after the work finished"
    is indistinguishable from success for idempotent protocols)."""

    def __init__(self, f: float, rng: np.random.Generator,
                 horizon: int = 40, max_crashes_per_instance: int = 32):
        if not 0.0 <= f < 1.0:
            raise ValueError("f must be in [0, 1)")
        self.f = f
        self.rng = rng
        self.horizon = horizon
        self.max_crashes_per_instance = max_crashes_per_instance
        self.crashes_fired = 0
        self._crash_counts: Dict[str, int] = {}

    def hook_for(self, instance_id: str,
                 attempt: int) -> Optional[FaultHook]:
        if self.f == 0.0:
            return None
        if (self._crash_counts.get(instance_id, 0)
                >= self.max_crashes_per_instance):
            return None
        if self.rng.random() >= self.f:
            return None
        target = int(self.rng.integers(1, self.horizon + 1))
        counter = {"n": 0}

        def hook(label: str) -> None:
            counter["n"] += 1
            if counter["n"] == target:
                self.crashes_fired += 1
                self._crash_counts[instance_id] = (
                    self._crash_counts.get(instance_id, 0) + 1
                )
                raise CrashError(
                    f"bernoulli crash (f={self.f}) at checkpoint {target}"
                )

        return hook
