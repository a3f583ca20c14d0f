"""Unit tests for the per-invocation environment."""

from repro.runtime import Env
from repro.sharedlog import LogRecord
from tests.conftest import make_runtime


def make_record(seqnum, step, **data):
    payload = {"step": step, **data}
    return LogRecord(seqnum, ("i:x",), payload)


def test_record_step_and_replay_lookup():
    env = Env(instance_id="x")
    env.record_step(make_record(10, 1, op="read"))
    env.step = 1
    assert env.replay_record().seqnum == 10
    env.step = 2
    assert env.replay_record() is None


def test_advance_cursor_is_monotone():
    env = Env(instance_id="x")
    env.advance_cursor(5)
    env.advance_cursor(3)  # must not regress
    assert env.cursor_ts == 5
    env.advance_cursor(9)
    assert env.cursor_ts == 9


def test_replay_preserves_identity():
    """A new attempt is fresh execution state under the same identity
    (attempt state has one constructor; nothing resets an Env in place)."""
    runtime = make_runtime("halfmoon-write")
    runtime.populate("k", 0)
    first = runtime.open_session(instance_id="x", input={"a": 1}).init()
    first.write("k", 1)
    first.write("k", 2)
    assert first.env.cursor_ts > 0
    assert first.env.consecutive_writes == 2
    assert first.env.last_write_key == "k"

    env = first.replay().env
    assert env is not first.env
    assert env.instance_id == "x"
    assert env.input == {"a": 1}
    assert env.step == 0
    assert env.cursor_ts == 0
    assert env.consecutive_writes == 0
    assert env.object_protocols == {}
    assert env.last_write_key == ""
    assert env.attempt == 2
