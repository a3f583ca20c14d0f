"""Unit tests for orphan takeover coordination."""

from repro.recovery import Orphan, RecoveryCoordinator
from repro.runtime import InvocationTracker
from repro.simulation import Simulator


def make_orphan(instance_id, node_id=0, orphaned_at_ms=100.0):
    return Orphan(
        instance_id=instance_id, request=None, arrival_ms=0.0,
        next_attempt=2, node_id=node_id, orphaned_at_ms=orphaned_at_ms,
    )


def test_orphans_redispatched_on_node_failure():
    sim = Simulator()
    tracker = InvocationTracker()
    redispatched = []
    coord = RecoveryCoordinator(sim, tracker, redispatched.append)
    tracker.start("a", 1)
    tracker.start("b", 2)
    coord.add_orphan(make_orphan("a"))
    coord.add_orphan(make_orphan("b"))
    assert tracker.orphan_count == 2
    assert coord.pending_count == 2

    sim.now = 400.0  # advance the clock without running processes
    coord.node_failed(0, detected_at_ms=400.0)
    assert [o.instance_id for o in redispatched] == ["a", "b"]
    assert coord.recovered == 2
    assert coord.pending_count == 0
    assert tracker.is_running("a") and tracker.is_running("b")
    assert coord.takeover_latency.count == 2
    assert coord.takeover_latency.mean() == 300.0


def test_recovery_only_touches_the_failed_node():
    sim = Simulator()
    tracker = InvocationTracker()
    redispatched = []
    coord = RecoveryCoordinator(sim, tracker, redispatched.append)
    tracker.start("a", 1)
    tracker.start("b", 2)
    coord.add_orphan(make_orphan("a", node_id=0, orphaned_at_ms=0.0))
    coord.add_orphan(make_orphan("b", node_id=1, orphaned_at_ms=0.0))
    coord.node_failed(0, detected_at_ms=200.0)
    assert [o.instance_id for o in redispatched] == ["a"]
    assert coord.pending_for(1)[0].instance_id == "b"


def test_finished_orphan_not_redispatched():
    sim = Simulator()
    tracker = InvocationTracker()
    redispatched = []
    coord = RecoveryCoordinator(sim, tracker, redispatched.append)
    tracker.start("a", 1)
    coord.add_orphan(make_orphan("a"))
    # The invocation finished before takeover (e.g. its node restarted
    # and completed it): nothing is owed.
    tracker.finish("a")
    coord.node_failed(0, detected_at_ms=200.0)
    assert redispatched == []
    assert coord.recovered == 0


def test_node_restart_recovers_own_orphans():
    sim = Simulator()
    tracker = InvocationTracker()
    redispatched = []
    coord = RecoveryCoordinator(sim, tracker, redispatched.append)
    tracker.start("a", 1)
    coord.add_orphan(make_orphan("a", orphaned_at_ms=0.0))
    # Restart lands before the lease expires: self-recovery.
    coord.node_restarted(0)
    assert [o.instance_id for o in redispatched] == ["a"]
    # A later detector verdict finds nothing left to do.
    coord.node_failed(0, detected_at_ms=500.0)
    assert len(redispatched) == 1
