"""Per-invocation environment (the ``env`` of the paper's pseudocode).

Holds the SSF's identity and the protocol-relevant cursor state:

* ``instance_id`` — the common identifier shared by all concurrent
  instances of one SSF invocation (``instancesID`` in Section 4); peer
  instances deliberately share it so they read the same step log;
* ``cursor_ts``  — the function-local seqnum of the latest logged
  operation, advanced after every logging call;
* ``step``       — position in the SSF's deterministic sequence of logged
  operations; indexes the step log for replay;
* ``step_logs``  — the records retrieved from the step log at init,
  consulted to skip completed operations during re-execution;
* ``consecutive_writes`` — Halfmoon-write's tie-breaking counter for
  version tuples, incremented on writes and reset on reads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from ..sharedlog import LogRecord


@dataclass
class Env:
    instance_id: str
    input: Any = None
    caller_id: Optional[str] = None
    func_name: str = ""

    step: int = 0
    cursor_ts: int = 0
    init_cursor_ts: int = 0
    consecutive_writes: int = 0
    step_logs: Dict[int, LogRecord] = field(default_factory=dict)

    #: Protocol chosen per object during a switching window (Section 4.7):
    #: the first access to a key pins the protocol for the invocation.
    object_protocols: Dict[str, str] = field(default_factory=dict)

    #: Ordinal of the next log-free read (Section 7 checkpointing) and
    #: the checkpointed results recovered for this attempt.
    read_index: int = 0
    read_checkpoints: Dict[int, Any] = field(default_factory=dict)

    #: Downstream invocations registered via ``ctx.trigger`` (Section
    #: 4.4's trigger edges): (callee_id, func_name, input) tuples fired
    #: by the runtime after this invocation completes.
    pending_triggers: list = field(default_factory=list)

    #: Key of the immediately preceding log-free write, if the last
    #: operation was one; used by the ordered-write extension to detect
    #: consecutive writes to different objects.
    last_write_key: str = ""

    #: Number of times this invocation has been (re-)executed; 1 = first run.
    attempt: int = 1

    def record_step(self, record: LogRecord) -> None:
        """Index a step-log record for replay lookups."""
        self.step_logs[record.step] = record

    def replay_record(self) -> Optional[LogRecord]:
        """The existing log record for the current step, if any."""
        return self.step_logs.get(self.step)

    def advance_cursor(self, seqnum: int) -> None:
        # The cursor is monotone: replayed records never move it backwards.
        if seqnum > self.cursor_ts:
            self.cursor_ts = seqnum
