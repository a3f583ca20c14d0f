"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.simulation import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield sim.timeout(5.0)
        return "done"

    p = sim.process(proc())
    sim.run()
    assert sim.now == 5.0
    assert p.triggered
    assert p.value == "done"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(1.0)
        seen.append(sim.now)
        yield sim.timeout(2.5)
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == [1.0, 3.5]


def test_timeout_value_passed_to_process():
    sim = Simulator()
    received = []

    def proc():
        value = yield sim.timeout(1.0, value="payload")
        received.append(value)

    sim.process(proc())
    sim.run()
    assert received == ["payload"]


def test_processes_interleave_by_time():
    sim = Simulator()
    order = []

    def proc(name, delays):
        for d in delays:
            yield sim.timeout(d)
            order.append((name, sim.now))

    sim.process(proc("a", [2.0, 2.0]))   # fires at 2, 4
    sim.process(proc("b", [1.0, 2.0]))   # fires at 1, 3
    sim.run()
    assert order == [("b", 1.0), ("a", 2.0), ("b", 3.0), ("a", 4.0)]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []

    def proc(name):
        yield sim.timeout(1.0)
        order.append(name)

    for name in ["first", "second", "third"]:
        sim.process(proc(name))
    sim.run()
    assert order == ["first", "second", "third"]


def test_run_until_limits_clock():
    sim = Simulator()

    def proc():
        while True:
            yield sim.timeout(10.0)

    sim.process(proc())
    sim.run(until=25.0)
    assert sim.now == 25.0


def test_run_until_sets_clock_even_when_idle():
    sim = Simulator()
    sim.run(until=100.0)
    assert sim.now == 100.0


def test_process_waits_on_manual_event():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(7.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(7.0, "open")]


def test_event_cannot_fire_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_process_waiting_on_already_fired_event():
    sim = Simulator()
    gate = sim.event()
    gate.succeed("early")
    got = []

    def proc():
        value = yield gate
        got.append(value)

    sim.process(proc())
    sim.run()
    assert got == ["early"]


def test_process_return_value_via_nested_wait():
    sim = Simulator()

    def child():
        yield sim.timeout(3.0)
        return 42

    def parent():
        result = yield sim.process(child())
        return result * 2

    p = sim.process(parent())
    sim.run()
    assert p.value == 84
    assert sim.now == 3.0


def test_run_until_complete_returns_value():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return "finished"

    p = sim.process(proc())
    assert sim.run_until_complete(p) == "finished"


def test_run_until_complete_detects_deadlock():
    sim = Simulator()
    gate = sim.event()  # nobody ever fires this

    def proc():
        yield gate

    p = sim.process(proc())
    with pytest.raises(DeadlockError):
        sim.run_until_complete(p)


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def proc():
        yield "not an event"

    sim.process(proc())
    with pytest.raises(SimulationError):
        sim.run()


def test_peek_reports_next_event_time():
    sim = Simulator()
    assert sim.peek() is None

    def proc():
        yield sim.timeout(9.0)

    sim.process(proc())
    assert sim.peek() == 0.0  # the process start event
    sim.run()
    assert sim.peek() is None


def test_many_processes_deterministic():
    def run_once():
        sim = Simulator()
        trace = []

        def proc(i):
            yield sim.timeout(float(i % 7))
            trace.append(i)
            yield sim.timeout(float(i % 3))
            trace.append(-i)

        for i in range(50):
            sim.process(proc(i))
        sim.run()
        return trace

    assert run_once() == run_once()


class TestInterrupt:
    def test_interrupt_during_timeout(self):
        from repro.simulation import Interrupt

        sim = Simulator()
        caught = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as exc:
                caught.append((sim.now, exc.cause))

        proc = sim.process(victim())

        def killer():
            yield sim.timeout(3.0)
            proc.interrupt(cause="node-0")

        sim.process(killer())
        sim.run()
        assert caught == [(3.0, "node-0")]
        assert proc.triggered

    def test_unhandled_interrupt_kills_process(self):
        sim = Simulator()
        reached = []

        def victim():
            yield sim.timeout(100.0)
            reached.append(True)

        proc = sim.process(victim())

        def killer():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(killer())
        sim.run()
        assert proc.triggered
        assert proc.value is None
        assert reached == []
        # The detached timeout still fires, but nothing resumes.
        assert sim.now == 100.0

    def test_interrupt_of_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(1.0)
            return "ok"

        proc = sim.process(quick())
        sim.run()
        assert proc.value == "ok"
        proc.interrupt()  # must not raise or re-trigger
        sim.run()
        assert proc.value == "ok"

    def test_double_interrupt_same_instant(self):
        sim = Simulator()

        def victim():
            yield sim.timeout(50.0)

        proc = sim.process(victim())

        def killer():
            yield sim.timeout(2.0)
            proc.interrupt(cause="first")
            proc.interrupt(cause="second")

        sim.process(killer())
        sim.run()
        assert proc.triggered and proc.value is None

    def test_interrupted_process_can_clean_up_and_return(self):
        from repro.simulation import Interrupt

        sim = Simulator()

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                return "cleaned-up"
            return "finished"

        proc = sim.process(victim())

        def killer():
            yield sim.timeout(5.0)
            proc.interrupt()

        sim.process(killer())
        sim.run()
        assert proc.value == "cleaned-up"

    def test_interrupt_detaches_from_waited_process(self):
        # Interrupting a process that waits on another process must not
        # leave a dangling resume when the awaited process completes.
        from repro.simulation import Interrupt

        sim = Simulator()
        log = []

        def slow():
            yield sim.timeout(10.0)
            return "slow-done"

        slow_proc = sim.process(slow())

        def waiter():
            try:
                value = yield slow_proc
                log.append(("resumed", value))
            except Interrupt:
                log.append(("interrupted", sim.now))

        waiter_proc = sim.process(waiter())

        def killer():
            yield sim.timeout(4.0)
            waiter_proc.interrupt()

        sim.process(killer())
        sim.run()
        assert log == [("interrupted", 4.0)]
        assert slow_proc.value == "slow-done"


def test_finished_processes_leave_no_cyclic_garbage():
    """A finished process drops its cached bound methods, so a run is
    freed by reference counting: the collector finds nothing, on both
    finish paths (return and unhandled interrupt)."""
    import gc

    def run():
        sim = Simulator()

        def worker(i):
            yield 1.0
            yield sim.timeout(2.0)
            return i

        procs = [sim.process(worker(i)) for i in range(100)]

        def killer():
            yield 2.0
            for proc in procs[::10]:
                proc.interrupt()

        sim.process(killer())
        sim.run()
        assert sum(p.value is None for p in procs) == 10

    run()  # warm lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()
