"""Bounded exhaustive exploration of protocol interleavings.

The paper's technical report backs Propositions 4.7 and 4.8 with formal
proofs and TLA+ model checking.  This module is the executable analogue
over the *actual implementation*: given small per-SSF programs, it
enumerates **every** interleaving of their operations (and, optionally,
every single-crash/replay variant), runs each schedule against a fresh
substrate, and checks the protocol's guarantees on each outcome:

* the recorded history validates against the protocol's derived effective
  order (sequential consistency for Halfmoon-read; the relaxed order of
  Proposition 4.8 for Halfmoon-write);
* a session that crashes after any prefix and replays at the end of the
  schedule converges to a state consistent with exactly-once semantics
  (its re-executed reads return their original values, and the final
  store state validates under the same ordering rules).

Exploration is exhaustive but bounded: the number of interleavings of
programs with lengths ``n1..nk`` is the multinomial coefficient, so keep
programs to a handful of operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConsistencyViolation
from .checker import validate_total_order
from .effective_order import (
    commutable_log_free_writes,
    halfmoon_read_order,
    halfmoon_write_order,
)
from .events import History
from .trace import TracedSession

#: A program is a sequence of ("r"|"w", key) operations; written values
#: are generated uniquely per (session, op index).
Program = Sequence[Tuple[str, str]]


@dataclass
class Violation:
    schedule: Tuple[int, ...]
    crash: Optional[Tuple[int, int]]  # (session index, after-op count)
    message: str


@dataclass
class ExplorationResult:
    schedules_explored: int = 0
    crash_variants_explored: int = 0
    violations: List[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (
            f"{self.schedules_explored} schedules, "
            f"{self.crash_variants_explored} crash variants, "
            f"{len(self.violations)} violations"
        )


def all_interleavings(lengths: Sequence[int]):
    """Yield every schedule (tuple of session indices) interleaving
    programs of the given lengths, preserving each program's order.

    Schedules come in lexicographic order, each once: the distinct
    permutations of the multiset of session indices, stepped by the
    classic next-permutation rule (Narayana Pandita's)."""
    schedule = [index for index, length in enumerate(lengths)
                for _ in range(length)]
    last = len(schedule) - 1
    while True:
        yield tuple(schedule)
        # The rightmost ascent; none left means the last schedule.
        i = last - 1
        while i >= 0 and schedule[i] >= schedule[i + 1]:
            i -= 1
        if i < 0:
            return
        # Swap in the smallest larger index from the (descending)
        # suffix, then put that suffix in ascending order.
        j = last
        while schedule[j] <= schedule[i]:
            j -= 1
        schedule[i], schedule[j] = schedule[j], schedule[i]
        schedule[i + 1:] = schedule[:i:-1]


class ProtocolExplorer:
    """Explores a protocol over fixed programs and initial values."""

    def __init__(
        self,
        protocol: str,
        programs: Sequence[Program],
        initial_values: Dict[str, Any],
        seed: int = 0,
    ):
        self.protocol = protocol
        self.programs = [list(p) for p in programs]
        self.initial_values = dict(initial_values)
        self.seed = seed

    # ------------------------------------------------------------------
    # Single-schedule execution
    # ------------------------------------------------------------------

    def _fresh_runtime(self):
        from ..config import SystemConfig
        from ..runtime.local import LocalRuntime

        runtime = LocalRuntime(
            SystemConfig(seed=self.seed), protocol=self.protocol
        )
        for key, value in self.initial_values.items():
            runtime.populate(key, value)
        return runtime

    def _run_schedule(
        self,
        schedule: Sequence[int],
        crash: Optional[Tuple[int, int]] = None,
    ) -> Tuple[History, Dict[int, List[Any]], Dict[int, List[Any]]]:
        """Execute one schedule; returns (history, reads before crash,
        reads from the replay)."""
        runtime = self._fresh_runtime()
        history = History(initial_values=dict(self.initial_values))
        sessions = [
            TracedSession(runtime.open_session(), history, f"P{i}").init()
            for i in range(len(self.programs))
        ]
        positions = [0] * len(self.programs)
        reads: Dict[int, List[Any]] = {
            i: [] for i in range(len(self.programs))
        }

        crashed_session = crash[0] if crash is not None else None
        crash_after = crash[1] if crash is not None else None

        for session_index in schedule:
            if (session_index == crashed_session
                    and positions[session_index] >= crash_after):
                continue  # this session is "down" for the rest
            op_kind, key = self.programs[session_index][
                positions[session_index]
            ]
            session = sessions[session_index]
            if op_kind == "r":
                reads[session_index].append(session.read(key))
            else:
                session.write(
                    key,
                    f"s{session_index}.o{positions[session_index]}",
                )
            positions[session_index] += 1

        replay_reads: Dict[int, List[Any]] = {}
        if crashed_session is not None:
            # The crashed session re-executes its whole program at the
            # end of the schedule (detection delay elapsed).
            replay = TracedSession(
                sessions[crashed_session].session.replay(),
                History(initial_values=dict(self.initial_values)),
                f"P{crashed_session}r",
            ).init()
            collected: List[Any] = []
            for op_index, (op_kind, key) in enumerate(
                self.programs[crashed_session]
            ):
                if op_kind == "r":
                    collected.append(replay.read(key))
                else:
                    replay.write(key, f"s{crashed_session}.o{op_index}")
            replay_reads[crashed_session] = collected
        return history, reads, replay_reads

    # ------------------------------------------------------------------
    # Invariant checks
    # ------------------------------------------------------------------

    def _validate_history(self, history: History) -> None:
        if self.protocol == "halfmoon-read":
            validate_total_order(history, halfmoon_read_order(history))
        elif self.protocol == "halfmoon-write":
            validate_total_order(
                history,
                halfmoon_write_order(history),
                allow_reorder=commutable_log_free_writes,
            )
        # Boki/unsafe: no derived order to validate.

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------

    def explore(self, with_crashes: bool = True) -> ExplorationResult:
        result = ExplorationResult()
        lengths = [len(p) for p in self.programs]
        for schedule in all_interleavings(lengths):
            result.schedules_explored += 1
            try:
                history, _, _ = self._run_schedule(schedule)
                self._validate_history(history)
            except ConsistencyViolation as violation:
                result.violations.append(
                    Violation(tuple(schedule), None, str(violation))
                )
                continue

            if not with_crashes:
                continue
            # Crash each session after each prefix of its program; the
            # replayed reads must match the pre-crash reads prefix.
            for session_index, program in enumerate(self.programs):
                for crash_after in range(0, len(program)):
                    result.crash_variants_explored += 1
                    try:
                        _, reads, replay_reads = self._run_schedule(
                            schedule, crash=(session_index, crash_after)
                        )
                        before = reads[session_index]
                        after = replay_reads[session_index]
                        if after[: len(before)] != before:
                            raise ConsistencyViolation(
                                f"replayed reads {after} diverge from "
                                f"pre-crash reads {before}"
                            )
                    except ConsistencyViolation as violation:
                        result.violations.append(
                            Violation(
                                tuple(schedule),
                                (session_index, crash_after),
                                str(violation),
                            )
                        )
        return result
