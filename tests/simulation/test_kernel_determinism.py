"""Same-instant ordering regressions for the DES kernel.

The kernel's determinism contract: events scheduled for the same
simulated instant fire in *schedule order* (the monotone ``eid``
counter breaks ties, never object identity or hash order).  Every
optimisation of the hot path — tuple heap entries, deferred-callback
tuples replacing wrapper events, the inlined ``Timeout`` constructor —
must conserve one eid per scheduled occurrence, or same-instant
ordering (and with it every seeded experiment) silently shifts.
These tests pin that contract directly.
"""

import pytest

from repro.errors import SimulationError
from repro.simulation import Event, Interrupt, Simulator


def test_same_instant_timeouts_fire_in_schedule_order():
    sim = Simulator()
    fired = []

    def waiter(tag):
        yield sim.timeout(5.0)
        fired.append(tag)

    for tag in range(8):
        sim.process(waiter(tag))
    sim.run()
    assert fired == list(range(8))


def test_same_instant_mixed_delays_fire_in_schedule_order():
    # Two paths reach t=6: a direct 6ms timeout scheduled first, and a
    # 3+3ms chain scheduled second.  The chain's second timeout is
    # scheduled *later* (at t=3), so it must fire second at t=6.
    sim = Simulator()
    fired = []

    def direct():
        yield sim.timeout(6.0)
        fired.append("direct")

    def chained():
        yield sim.timeout(3.0)
        yield sim.timeout(3.0)
        fired.append("chained")

    sim.process(direct())
    sim.process(chained())
    sim.run()
    assert fired == ["direct", "chained"]


def test_succeed_order_decides_same_instant_resume_order():
    sim = Simulator()
    a, b = sim.event(), sim.event()
    fired = []

    def waiter(event, tag):
        yield event
        fired.append(tag)

    def trigger():
        yield sim.timeout(1.0)
        # b succeeds before a: resume order must follow succeed order,
        # not process-creation order.
        b.succeed("b")
        a.succeed("a")

    sim.process(waiter(a, "a"))
    sim.process(waiter(b, "b"))
    sim.process(trigger())
    sim.run()
    assert fired == ["b", "a"]


def test_already_fired_event_resumes_after_earlier_schedules():
    # Yielding an already-triggered event goes through the deferred
    # tuple path; it must still respect eid order against a timeout(0)
    # scheduled first at the same instant.
    sim = Simulator()
    fired = []
    done = Event(sim)
    done.succeed("ready")

    def zero_timeout():
        yield sim.timeout(0.0)
        fired.append("timeout0")

    def eager():
        value = yield done
        fired.append(value)

    sim.process(zero_timeout())
    sim.process(eager())
    sim.run()
    assert fired == ["timeout0", "ready"]


def test_interleaved_schedule_order_is_stable_across_runs():
    def run_once():
        sim = Simulator()
        fired = []

        def worker(tag, delay):
            yield sim.timeout(delay)
            fired.append((sim.now, tag))
            yield sim.timeout(delay)
            fired.append((sim.now, tag))

        # Deliberate eid collisions: several workers share each delay.
        for tag in range(6):
            sim.process(worker(tag, 2.0 + (tag % 2)))
        sim.run()
        return fired

    first = run_once()
    assert run_once() == first
    # Within one instant, workers fire in creation order.
    by_time = {}
    for now, tag in first:
        by_time.setdefault(now, []).append(tag)
    for tags in by_time.values():
        assert tags == sorted(tags)


def test_interrupt_invalidates_pending_same_instant_resume():
    # A process that yields an already-fired event has a deferred
    # resume tuple sitting on the heap.  An interrupt issued at the
    # same instant must invalidate that pending resume (the wait-token
    # regression): the process sees only the Interrupt, never the
    # stale resume.
    sim = Simulator()
    outcome = []
    done = Event(sim)
    done.succeed("early")

    def victim():
        try:
            value = yield done  # already fired: deferred resume queued
            outcome.append(("resumed", value))
        except Interrupt as exc:
            outcome.append(("interrupted", exc.cause))

    proc = sim.process(victim())

    def attacker():
        # Starts after victim queued its deferred resume, still at t=0;
        # the interrupt's deferred throw lands *behind* the stale
        # resume in eid order, so only token invalidation saves us.
        proc.interrupt("bang")
        yield sim.timeout(0.0)

    sim.process(attacker())
    sim.run()
    assert outcome == [("interrupted", "bang")]


def test_events_processed_counts_every_pop():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.process(proc())
    sim.run()
    # Deferred start, two timeouts, and the process-completion event.
    assert sim.events_processed == 4


# -- property tests: same-instant batch draining --------------------------
#
# ``Simulator.run`` drains every entry of one timestamp in a single pass
# (the clock is advanced once per distinct instant).  The contract: the
# batch is *observably identical* to the one-pop-at-a-time loop — pop
# order within the instant stays schedule order, entries pushed during
# the batch join it, and wait tokens still invalidate stale wakeups.
# These properties are exercised over seeded random schedules rather
# than hand-picked cases, deliberately forcing heavy eid collisions
# (delays are drawn from a tiny set so many processes land on the same
# instants).


def _random_trace(seed: int, spelling: str):
    """Run a random workload; return the (time, tag, step) fire trace.

    ``spelling`` selects bare-delay yields (``yield d``) or Timeout
    yields (``yield sim.timeout(d)``) — the two must be observably
    interchangeable (same trace, same clock, same event count).
    """
    import random

    rng = random.Random(seed)
    sim = Simulator()
    trace = []
    delays = (0.0, 1.0, 1.0, 2.0, 5.0)  # heavy same-instant collisions

    def worker(tag, plan):
        for step, delay in enumerate(plan):
            if spelling == "bare":
                yield delay
            else:
                yield sim.timeout(delay)
            trace.append((sim.now, tag, step))

    for tag in range(rng.randrange(2, 12)):
        plan = [rng.choice(delays) for _ in range(rng.randrange(1, 9))]
        sim.process(worker(tag, plan))
    sim.run()
    return trace, sim.now, sim.events_processed


def test_property_batch_drain_preserves_schedule_order():
    for seed in range(40):
        trace, _now, _events = _random_trace(seed, "bare")
        # Group by instant: within one timestamp, a worker's earlier-
        # scheduled wakeups fire before later-scheduled ones, and two
        # workers whose wakeups were scheduled at the same earlier
        # instant fire in schedule (creation) order.  Both reduce to:
        # the (tag, step) pairs of one instant that were scheduled at
        # the same prior instant appear in ascending tag order.
        by_instant = {}
        for now, tag, step in trace:
            by_instant.setdefault(now, []).append((tag, step))
        for fired in by_instant.values():
            per_tag = {}
            for tag, step in fired:
                per_tag.setdefault(tag, []).append(step)
            for steps in per_tag.values():
                assert steps == sorted(steps), (fired, steps)


def test_property_bare_delay_and_timeout_traces_identical():
    # The interchangeability contract behind the bare-delay fast path:
    # swapping ``yield d`` for ``yield sim.timeout(d)`` changes no
    # observable — fire order, clock, or events_processed.
    for seed in range(40):
        assert _random_trace(seed, "bare") == _random_trace(seed, "timeout")


def test_property_interrupt_tokens_survive_batch_drain():
    # Interrupt storms against sleeping processes, with interrupts and
    # wakeups colliding on the same instants: a process must never see
    # a wakeup from a wait it was already interrupted out of (the
    # wait-token rule), and must resume each wait at most once — even
    # though the stale heap entries are drained in the same batch as
    # the live ones.
    import random

    for seed in range(40):
        rng = random.Random(1000 + seed)
        sim = Simulator()
        n = rng.randrange(2, 7)
        log = [[] for _ in range(n)]
        procs = []

        def sleeper(tag):
            epoch = 0
            for _ in range(6):
                try:
                    yield rng.choice((0.0, 1.0, 2.0))
                    log[tag].append(("wake", epoch, sim.now))
                except Interrupt:
                    log[tag].append(("int", epoch, sim.now))
                    epoch += 1

        for tag in range(n):
            procs.append(sim.process(sleeper(tag)))

        def attacker():
            for _ in range(8):
                yield rng.choice((0.0, 1.0))
                victim = procs[rng.randrange(n)]
                victim.interrupt("storm")

        sim.process(attacker())
        sim.run()
        for tag in range(n):
            epoch = 0
            for kind, seen_epoch, _now in log[tag]:
                # Every entry is observed in the epoch the process was
                # actually in: a wake carrying a pre-interrupt epoch
                # would mean a stale wakeup slipped past its token.
                assert seen_epoch == epoch, log[tag]
                if kind == "int":
                    epoch += 1


def test_entries_pushed_mid_batch_join_the_instant():
    # A callback that schedules more same-instant work while its batch
    # is draining: run(until=now) must finish the whole cascade, not
    # strand the tail for a later call.
    sim = Simulator()
    fired = []

    def cascade(depth):
        if depth < 5:
            sim.process(tail(depth))

    def tail(depth):
        yield 0.0
        fired.append(depth)
        cascade(depth + 1)

    cascade(0)
    sim.run(until=0.0)
    assert fired == [0, 1, 2, 3, 4]
    assert sim.now == 0.0


# -- edge cases: time limit, stale heap entries, wait tokens, run(until) ----


def test_run_until_complete_enforces_time_limit():
    sim = Simulator()

    def runaway():
        while True:
            yield 1.0

    with pytest.raises(SimulationError, match="exceeded time limit 5.0"):
        sim.run_until_complete(sim.process(runaway()), limit=5.0)
    # The entry that broke the limit was popped but not executed.
    assert sim.now == 5.0


def test_interrupted_bare_delay_leaves_a_stale_entry_that_still_drains():
    # An interrupted bare-delay sleep leaves its invalidated heap entry
    # behind; popping it advances the clock and counts as an event
    # without resuming the process.
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield 100.0
            log.append("woke")
        except Interrupt as exc:
            log.append(("int", exc.cause, sim.now))

    proc = sim.process(sleeper())

    def attacker():
        yield sim.timeout(10.0)
        proc.interrupt("early")

    sim.process(attacker())
    sim.run()
    assert log == [("int", "early", 10.0)]
    assert sim.now == 100.0
    # Two deferred starts, the attacker's timeout, the deferred throw,
    # two process completions, and the stale wakeup at t=100.
    assert sim.events_processed == 7


def test_wait_token_gauntlet():
    # Interrupt a process waiting on a shared event (callback detach),
    # one with a deferred resume already on the heap, and that one
    # twice at the same instant.  The surviving waiter must still fire.
    sim = Simulator()
    log = []
    shared = sim.event()
    fired = Event(sim)
    fired.succeed("stale")

    def waiter(event, tag):
        try:
            value = yield event
            log.append((tag, "got", value, sim.now))
        except Interrupt as exc:
            log.append((tag, "int", exc.cause, sim.now))

    victims = [
        sim.process(waiter(shared, "shared-victim")),
        sim.process(waiter(shared, "shared-survivor")),
        sim.process(waiter(fired, "deferred-victim")),
    ]

    def attacker():
        victims[0].interrupt("one")
        victims[2].interrupt(cause="kw")
        victims[2].interrupt("again")  # double interrupt, same instant
        yield sim.timeout(2.0)
        shared.succeed("late")

    sim.process(attacker())
    sim.run()
    assert log == [
        ("shared-victim", "int", "one", 0.0),
        ("deferred-victim", "int", "kw", 0.0),
        ("shared-survivor", "got", "late", 2.0),
    ]
    assert shared.callbacks == []
    assert sim.now == 2.0
    # ``fired``'s own callbacks entry, four deferred starts, the stale
    # deferred resume, three deferred throws (the third a no-op), the
    # attacker's timeout, ``shared``'s entry, and four completions.
    assert sim.events_processed == 15


def test_run_until_then_peek_then_resume_to_completion():
    sim = Simulator()
    fired = []

    def worker():
        for _ in range(4):
            yield 5.0
            fired.append(sim.now)

    sim.process(worker())
    sim.run(until=10.0)
    assert (fired, sim.now, sim.peek()) == ([5.0, 10.0], 10.0, 15.0)
    sim.run()
    assert fired == [5.0, 10.0, 15.0, 20.0]
    assert sim.now == 20.0 and sim.peek() is None
    # Deferred start, four wakeups, and the process completion.
    assert sim.events_processed == 6
