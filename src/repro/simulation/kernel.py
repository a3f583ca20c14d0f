"""A minimal deterministic discrete-event simulation kernel (pure Python).

Processes are Python generators that ``yield`` :class:`Event` objects —
or bare ``float``/``int`` delays — and are resumed with the event's value
(``None`` for bare delays) once it fires.  The kernel is deliberately
small — timeouts, processes, and FIFO resources are all this
reproduction needs — and fully deterministic: events scheduled for the
same instant fire in scheduling order.

The event heap holds ``(time, eid, item)`` tuples where ``eid`` is a
monotonically increasing schedule counter: same-instant entries compare
on ``eid`` alone, so the item itself is never compared and insertion
order is the total order within an instant.  Besides :class:`Event`
objects the heap also carries plain ``(fn, arg)`` deferred-callback
tuples — a lightweight stand-in for the wrapper events that same-instant
process resumption, interrupts, and bare-delay yields would otherwise
allocate.

A bare ``yield 5.0`` is the fast path for the dominant pattern
(``yield sim.timeout(5.0)`` with the value unused): it allocates no
Timeout object and registers no callback — the scheduler resumes the
generator directly from the heap entry, guarded by the process's wait
token so an interrupt delivered while sleeping invalidates the
resumption exactly like a detached Timeout would.  The schedule-counter
consumption is identical to the Timeout form, so swapping one for the
other never perturbs seeded results.

Example::

    sim = Simulator()

    def worker():
        yield sim.timeout(5.0)   # or equivalently:  yield 5.0
        return "done"

    proc = sim.process(worker())
    sim.run()
    assert sim.now == 5.0 and proc.value == "done"
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError

ProcessGenerator = Generator[Any, Any, Any]


class Event:
    """A one-shot occurrence that processes can wait on."""

    __slots__ = ("sim", "callbacks", "_triggered", "_value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not fired yet")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Mark the event as fired *now* and schedule its callbacks."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule_callbacks(self)
        return self

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        # Inlined Event.__init__ — one Timeout per simulated service op
        # makes this the hottest constructor in the kernel.
        self.sim = sim
        self.callbacks = []
        self._triggered = True  # pre-armed; fires via the event heap
        self._value = value
        self.delay = delay
        sim._eid += 1
        heapq.heappush(sim._heap, (sim.now + delay, sim._eid, self))


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    ``cause`` carries arbitrary context (e.g. the id of a crashed node).
    A process that catches it can clean up and return; one that does not
    is simply terminated (its event fires with value ``None``).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """Wraps a generator; the event fires when the generator returns.

    ``_wait_token`` invalidates deferred same-instant resumptions *and*
    pending bare-delay wakeups: each detach (interrupt) bumps it, so a
    ``(fn, arg)`` tuple already sitting on the heap becomes a no-op
    instead of resuming a detached process.
    """

    __slots__ = ("generator", "name", "_waiting_on", "_waiting_cb",
                 "_wait_token", "_resume_bound", "_token_bound")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: str = "process"):
        super().__init__(sim)
        self.generator = generator
        self.name = name
        self._waiting_on: Optional[Event] = None
        self._waiting_cb: Optional[Callable[[Event], None]] = None
        self._wait_token = 0
        #: One bound method reused for every callback registration (a
        #: fresh ``self._resume`` per yield is an allocation the hot
        #: path can skip).
        self._resume_bound = self._resume
        self._token_bound = self._token_resume
        # Kick off the process at the current simulation time.
        sim._defer(self._token_bound, 0)

    def _token_resume(self, token: int) -> None:
        """Heap-entry target for deferred starts and bare-delay wakeups."""
        if token != self._wait_token or self._triggered:
            return
        self._advance(self.generator.send, None)

    def _resume(self, event: Event) -> None:
        if self._triggered:
            # The process already finished (e.g. it was interrupted twice
            # at the same instant); nothing left to resume.
            return
        self._waiting_on = None
        self._waiting_cb = None
        self._advance(self.generator.send, event._value)

    def _deferred_resume(self, arg: Tuple[Event, int]) -> None:
        target, token = arg
        if token != self._wait_token or self._triggered:
            return
        self._advance(self.generator.send, target._value)

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        self._waiting_on = None
        self._waiting_cb = None
        self._advance(self.generator.throw, exc)

    def _advance(self, step: Callable[[Any], Any], value: Any) -> None:
        try:
            target = step(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except Interrupt as interrupt:
            # The generator did not handle the interrupt: the process is
            # killed at this instant.  The traceback holds this frame and
            # its callers', which hold the interrupt: drop it, so the
            # dead process leaves no cycle behind.
            interrupt.__traceback__ = None
            self._finish(None)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Bare-delay yield: schedule the wakeup directly — no
            # Timeout object, no callback registration.  The schedule
            # counter advances exactly as the Timeout form would, so
            # the two spellings are interchangeable without perturbing
            # seeded results.
            if target < 0:
                raise SimulationError(f"negative timeout: {target}")
            sim = self.sim
            sim._eid += 1
            heapq.heappush(
                sim._heap,
                (sim.now + target, sim._eid,
                 (self._token_bound, self._wait_token)),
            )
            return
        if cls is Timeout:
            target.callbacks.append(self._resume_bound)
            self._waiting_on, self._waiting_cb = target, self._resume_bound
        elif not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}, "
                "expected Event or delay"
            )
        elif target._triggered:
            # Already-fired events resume the process on the next tick;
            # a deferred tuple replaces the wrapper event + closure.
            self._wait_token += 1
            self.sim._defer(self._deferred_resume,
                            (target, self._wait_token))
        else:
            target.callbacks.append(self._resume_bound)
            self._waiting_on, self._waiting_cb = target, self._resume_bound

    def _finish(self, value: Any) -> None:
        # The cached bound methods point back at the process: dropping
        # them leaves a finished process free of cycles, so it goes by
        # reference counting (heap entries still holding one are no-ops
        # now that the process has triggered).
        self._resume_bound = self._token_bound = None
        self.succeed(value)

    def _deferred_interrupt(self, cause: Any) -> None:
        self._throw(Interrupt(cause))

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The event the process was waiting on is detached (it may still
        fire, but no longer resumes this process).  Interrupting a
        finished process is a no-op.
        """
        if self._triggered:
            return
        if self._waiting_on is not None and self._waiting_cb is not None:
            try:
                self._waiting_on.callbacks.remove(self._waiting_cb)
            except ValueError:
                pass
        self._waiting_on = None
        self._waiting_cb = None
        self._wait_token += 1
        self.sim._defer(self._deferred_interrupt, cause)


class Simulator:
    """The event loop: a clock plus a priority queue of pending events."""

    def __init__(self):
        #: The clock: a plain attribute the scheduler assigns (read on
        #: every step of every process; a property would be a call).
        self.now = 0.0
        self._heap: List[Tuple[float, int, Any]] = []
        self._eid = 0
        self.events_processed = 0

    # -- scheduling ---------------------------------------------------------

    def _schedule_callbacks(self, event: Event) -> None:
        """Queue an already-fired event's callbacks at the current instant."""
        self._eid += 1
        heapq.heappush(self._heap, (self.now, self._eid, event))

    def _defer(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Queue a bare callback at the current instant.

        Cheaper than wrapping the callback in an :class:`Event`; ordering
        relative to real events is still by schedule counter.
        """
        self._eid += 1
        heapq.heappush(self._heap, (self.now, self._eid, (fn, arg)))

    # -- public API ---------------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def event(self) -> Event:
        return Event(self)

    def process(self, generator: ProcessGenerator,
                name: str = "process") -> Process:
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        Same-instant entries are drained in one pass: the scheduler
        advances the clock once per distinct timestamp and pops every
        entry at that instant (including ones its callbacks push) before
        re-checking the stop condition.  Pop order within the instant is
        by schedule counter, so the batch is observably identical to the
        one-at-a-time loop.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                break
            self.now = time
            # Drain this timestamp in one pass.
            while True:
                _, _eid, item = pop(heap)
                processed += 1
                if item.__class__ is tuple:
                    item[0](item[1])
                else:
                    item._run_callbacks()
                if not heap or heap[0][0] != time:
                    break
        self.events_processed += processed
        if until is not None and self.now < until:
            self.now = until

    def run_until_complete(self, process: Process,
                           limit: Optional[float] = None) -> Any:
        """Run until ``process`` finishes; raise on deadlock or time limit."""
        heap = self._heap
        pop = heapq.heappop
        while not process._triggered:
            if not heap:
                raise DeadlockError(
                    f"event queue drained before {process.name!r} finished"
                )
            time, _eid, item = pop(heap)
            if limit is not None and time > limit:
                raise SimulationError(
                    f"{process.name!r} exceeded time limit {limit}"
                )
            self.now = time
            self.events_processed += 1
            if item.__class__ is tuple:
                item[0](item[1])
            else:
                item._run_callbacks()
        return process.value

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or ``None`` if idle."""
        return self._heap[0][0] if self._heap else None
