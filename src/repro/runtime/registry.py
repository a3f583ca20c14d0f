"""Function registry and invocation tracking.

The registry maps function names to SSF bodies.  The tracker mirrors what
the paper's runtime derives from scanning init log records (Sections 4.5
and 4.7): which SSF invocations are currently running and the seqnum of
each one's init record.  Both the garbage collector (condition (b) of
Section 4.5) and the switch manager (finding SSFs that started before a
BEGIN record) consume this view.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..errors import InvocationError, RuntimeStateError


class FunctionRegistry:
    """Named SSF bodies: either ctx-style callables ``fn(ctx, inp)`` or
    op-style generator functions ``fn(inp)``."""

    def __init__(self):
        self._functions: Dict[str, Callable] = {}
        #: Body style per name, decided once at registration (the
        #: lifecycle asks on every invocation).
        self._generator_style: Dict[str, bool] = {}

    def register(self, name: str, fn: Callable) -> None:
        if name in self._functions:
            raise RuntimeStateError(f"function {name!r} already registered")
        self._functions[name] = fn
        self._generator_style[name] = self.is_generator_style(fn)

    def get(self, name: str) -> Callable:
        fn = self._functions.get(name)
        if fn is None:
            raise InvocationError(f"unknown function {name!r}")
        return fn

    def resolve(self, name: str) -> Tuple[Callable, bool]:
        """The body registered as ``name`` and whether it is op-style."""
        return self.get(name), self._generator_style[name]

    def names(self) -> List[str]:
        return sorted(self._functions)

    @staticmethod
    def is_generator_style(fn: Callable) -> bool:
        return inspect.isgeneratorfunction(fn)


class InvocationTracker:
    """Tracks running invocations and their initial cursorTS values.

    Besides *running* and *finished*, an invocation can be **orphaned**:
    its hosting node died mid-flight and no survivor has taken it over
    yet.  Orphans keep their init cursorTS pinned — they count for
    :meth:`safe_seqnum` and :meth:`running_started_before` exactly like
    running invocations — because the takeover replay still needs every
    log record and object version the original execution could observe.
    Letting the GC frontier advance past an orphan would trim state the
    recovering SSF reads (see ``tests/runtime/test_gc.py``).
    """

    def __init__(self):
        self._running: Dict[str, int] = {}
        self._orphaned: Dict[str, int] = {}
        self._finished_pending_gc: Set[str] = set()
        self._finished_count = 0
        self._started_count = 0
        self._finish_listeners: List[Callable[[str], None]] = []

    # -- lifecycle ---------------------------------------------------------

    def start(self, instance_id: str, provisional_init_ts: int) -> None:
        """Record an invocation as running.

        ``provisional_init_ts`` is a conservative lower bound on the init
        record's eventual seqnum (the log tail at start time); it is
        replaced by the real value once init completes.  Re-executions of
        an already-tracked instance are no-ops.
        """
        if instance_id in self._running or instance_id in self._orphaned:
            return
        self._running[instance_id] = provisional_init_ts
        self._started_count += 1

    def set_init_ts(self, instance_id: str, init_ts: int) -> None:
        if instance_id in self._running:
            self._running[instance_id] = init_ts
        elif instance_id in self._orphaned:
            self._orphaned[instance_id] = init_ts

    def mark_orphaned(self, instance_id: str) -> None:
        """The invocation's node died; keep its init cursorTS pinned
        until a survivor reclaims it (or it is finished)."""
        ts = self._running.pop(instance_id, None)
        if ts is None:
            return
        self._orphaned[instance_id] = ts

    def reclaim(self, instance_id: str) -> None:
        """A surviving node took the orphan over: running again."""
        ts = self._orphaned.pop(instance_id, None)
        if ts is None:
            return
        self._running[instance_id] = ts

    def finish(self, instance_id: str) -> None:
        if instance_id in self._running:
            del self._running[instance_id]
        elif instance_id in self._orphaned:
            del self._orphaned[instance_id]
        else:
            return
        self._finished_pending_gc.add(instance_id)
        self._finished_count += 1
        for listener in list(self._finish_listeners):
            listener(instance_id)

    def add_finish_listener(self,
                            listener: Callable[[str], None]) -> None:
        self._finish_listeners.append(listener)

    # -- queries -----------------------------------------------------------

    @property
    def running_count(self) -> int:
        return len(self._running)

    @property
    def finished_count(self) -> int:
        return self._finished_count

    @property
    def orphan_count(self) -> int:
        return len(self._orphaned)

    def is_running(self, instance_id: str) -> bool:
        return instance_id in self._running

    def is_orphaned(self, instance_id: str) -> bool:
        return instance_id in self._orphaned

    def orphans(self) -> Dict[str, int]:
        """Orphaned instances and their pinned init cursorTS values."""
        return dict(self._orphaned)

    def running_started_before(self, seqnum: int) -> Set[str]:
        """Unfinished invocations whose init record precedes ``seqnum``
        (orphans included: a takeover will resume them)."""
        return {
            iid
            for store in (self._running, self._orphaned)
            for iid, ts in store.items() if ts < seqnum
        }

    def safe_seqnum(self, log_frontier: int) -> int:
        """Largest ``t`` such that every SSF with initial cursorTS below
        ``t`` has finished (Section 4.5's condition (b)).  Orphaned
        invocations pin the frontier like running ones — their replay is
        still owed.  When nothing is unfinished, everything up to the log
        frontier is safe."""
        pinned = [
            ts for store in (self._running, self._orphaned)
            for ts in store.values()
        ]
        if not pinned:
            return log_frontier
        return min(pinned)

    def drain_finished(self) -> Set[str]:
        """Hand the set of finished-but-not-yet-collected instances to the
        garbage collector, clearing the pending set."""
        drained = self._finished_pending_gc
        self._finished_pending_gc = set()
        return drained
