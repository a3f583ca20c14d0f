"""Deterministic, simulated-clock invocation tracing.

A :class:`Tracer` collects per-invocation :class:`Span` trees: the
gateway queue wait, the worker-slot occupancy, each protocol attempt,
and every log/store service call — with retry attempts, injected
faults, circuit-breaker state transitions, and crash/orphan/takeover
events attached as :class:`SpanEvent` annotations.

Design constraints (both regression-tested):

* **Determinism.**  Tracing must never perturb a run: spans carry
  timestamps the *caller* supplies (simulated or cost-trace virtual
  time), the tracer never reads a wall clock and never touches an RNG
  stream, and no control-flow decision anywhere in the system depends
  on whether a tracer is attached.  Same seed ⇒ bit-identical results
  with tracing on or off.

* **Zero overhead when disabled.**  There is no "disabled tracer"
  object allocating dead spans; the off state is ``tracer = None`` and
  every instrumentation site guards with a single ``is None`` check,
  so the failure-free fast path allocates nothing.

Span identity: ``trace_id`` groups the spans of one logical invocation
(the SSF instance id, which survives crashes, node failures, and
takeover re-dispatch), ``span_id``/``parent_id`` encode the tree.
Export to Chrome trace-event JSON lives in :mod:`repro.observe.export`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import SimulationError

# -- span taxonomy (the ``category`` field) ------------------------------

#: Root span of one SSF invocation (arrival to completion).
CAT_INVOCATION = "invocation"
#: Gateway queueing: arrival / re-dispatch until a worker slot is granted.
CAT_QUEUE = "queue"
#: One execution attempt of the protocol (init .. finish or crash).
CAT_ATTEMPT = "attempt"
#: One substrate service call (log append/read, store read/write).
CAT_SERVICE = "service"
#: Recovery machinery: orphaning, lease expiry, takeover re-dispatch.
CAT_RECOVERY = "recovery"

#: Lane used by :meth:`Tracer.instant` events that belong to no single
#: invocation (node crashes, lease-detector verdicts).
PLATFORM_TRACE_ID = "platform"


@dataclass(frozen=True, slots=True)
class SpanEvent:
    """A point-in-time annotation attached to a span (or to a trace)."""

    name: str
    ts_ms: float
    args: Dict[str, Any] = field(default_factory=dict)


class Span:
    """One timed operation in an invocation's trace tree."""

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent_id", "name",
        "category", "start_ms", "end_ms", "args", "events",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        start_ms: float,
        args: Dict[str, Any],
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.args = args
        self.events: List[SpanEvent] = []

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise SimulationError(f"span {self.name!r} is not finished")
        return self.end_ms - self.start_ms

    def annotate(self, name: str, ts_ms: float, **args: Any) -> None:
        """Attach a point event (retry, fault, breaker trip, crash)."""
        self.events.append(SpanEvent(name, ts_ms, args))

    def finish(self, end_ms: float) -> None:
        if self.end_ms is not None:
            raise SimulationError(
                f"span {self.name!r} finished twice"
            )
        if end_ms < self.start_ms:
            raise SimulationError(
                f"span {self.name!r} ends before it starts "
                f"({end_ms} < {self.start_ms})"
            )
        self.end_ms = end_ms

    def child(self, name: str, category: str, start_ms: float,
              **args: Any) -> "Span":
        """Open a child span in the same trace."""
        return self.tracer.start_span(
            name, category, start_ms, trace_id=self.trace_id,
            parent=self, **args,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"{self.duration_ms:.3f}ms" if self.finished
                 else "open")
        return (f"Span({self.name!r}, cat={self.category!r}, "
                f"trace={self.trace_id!r}, {state})")


class Tracer:
    """Collects spans; attach one to a runtime/platform to enable tracing.

    The tracer is append-only and time-agnostic: callers supply every
    timestamp, so it works identically under the DES clock and under
    direct-mode cost-trace virtual time.
    """

    def __init__(self):
        self._spans: List[Span] = []
        #: Trace-level instant events, as ``(trace_id, SpanEvent)``.
        self._instants: List[Tuple[str, SpanEvent]] = []
        self._next_id = 1

    # -- recording ------------------------------------------------------

    def start_span(
        self,
        name: str,
        category: str,
        start_ms: float,
        trace_id: str,
        parent: Optional[Span] = None,
        **args: Any,
    ) -> Span:
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            category=category,
            start_ms=start_ms,
            args=args,
        )
        self._next_id += 1
        self._spans.append(span)
        return span

    def instant(self, name: str, ts_ms: float,
                trace_id: str = PLATFORM_TRACE_ID, **args: Any) -> None:
        """Record a point event not tied to one span (e.g. a node crash
        affects every invocation on the node)."""
        self._instants.append((trace_id, SpanEvent(name, ts_ms, args)))

    # -- introspection --------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    @property
    def instants(self) -> List[Tuple[str, SpanEvent]]:
        return list(self._instants)

    def spans_for(self, trace_id: str) -> List[Span]:
        return [s for s in self._spans if s.trace_id == trace_id]

    def spans_in(self, category: str) -> List[Span]:
        return [s for s in self._spans if s.category == category]

    def trace_ids(self) -> List[str]:
        """Distinct trace ids in first-seen order."""
        seen: Dict[str, None] = {}
        for span in self._spans:
            seen.setdefault(span.trace_id, None)
        for trace_id, _event in self._instants:
            seen.setdefault(trace_id, None)
        return list(seen)

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self._spans if s.parent_id == span.span_id]

    # -- distributed id allocation --------------------------------------

    def reserve_block(self, size: int) -> int:
        """Reserve ``size`` consecutive span ids and return the first.

        The live compute plane hands each worker process a reserved
        block of this tracer's id space, so spans recorded remotely
        (wall-clock worker tracers, see
        :mod:`repro.observe.distributed`) carry globally unique ids and
        can be absorbed verbatim — cross-process ``parent_id`` links
        included — without the renumbering :meth:`absorb` does.
        """
        if size <= 0:
            raise SimulationError(f"block size must be positive: {size}")
        start = self._next_id
        self._next_id += size
        return start

    # -- merging --------------------------------------------------------

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's records, renumbering span ids as if
        they had been recorded here directly.

        This is how per-cell tracers from parallel sweep workers merge
        back into the session tracer: absorbing cell tracers in cell
        order reproduces the exact span-id sequence a single shared
        tracer would have assigned, so traced sweeps are bit-identical
        at any ``--jobs`` level.
        """
        offset = self._next_id - 1
        for span in other._spans:
            span.tracer = self
            span.span_id += offset
            if span.parent_id is not None:
                span.parent_id += offset
            self._spans.append(span)
        self._instants.extend(other._instants)
        self._next_id += other._next_id - 1

    def __len__(self) -> int:
        return len(self._spans)
