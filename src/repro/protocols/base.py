"""Protocol interface and shared logged-step machinery.

A *protocol* decides, per operation, what gets logged and how reads and
writes are parameterised by timestamps.  All four systems evaluated in the
paper share the same skeleton:

* ``init``   — load the step log, establish the initial cursorTS;
* ``read``/``write`` — the protocol-specific part (Figures 5 and 7);
* ``invoke`` — call a child SSF with a pinned callee id, log its result;
* ``sync``   — optionally advance the cursorTS to the log tail for
  linearizable operation (Section 4.4).

Logged steps always go through ``logCondAppend`` (Section 5.1): the
condition ties the new record to the expected offset of the instance's
step log, so when peer instances race, exactly one wins and the losers
*adopt* the winner's record — both peers continue with identical state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..config import ProtocolConfig
from ..errors import ConditionalAppendError, ProtocolError
from ..tags import instance_tag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.env import Env
    from ..runtime.services import InstanceServices

#: Runtime callback that executes a child SSF invocation:
#: ``invoker(callee_instance_id, func_name, input, parent_env) -> result``.
Invoker = Callable[[str, str, Any, "Env"], Any]


class Protocol(ABC):
    """Abstract logging protocol."""

    #: Human-readable protocol identifier ("boki", "halfmoon-read", ...).
    name: str = "abstract"
    #: Whether reads install a log record (symmetric/transitional/HM-W).
    logs_reads: bool = False
    #: Whether writes install a publicly visible log record (HM-R/Boki).
    logs_writes: bool = False
    #: Whether commit records are tagged into per-object write logs
    #: (Halfmoon-read and the transitional protocol); Boki's write
    #: records live only in the private step log.
    public_write_log: bool = False
    #: How a takeover node recovers a crashed SSF (Sections 4.5 and 7):
    #: re-execution against whatever the protocol logged.  Subclasses
    #: refine the label so the failover tables can name the asymmetry.
    recovery_mode: str = "re-execution"

    def __init__(self, config: Optional[ProtocolConfig] = None):
        self.config = config if config is not None else ProtocolConfig()

    # -- lifecycle --------------------------------------------------------

    @abstractmethod
    def init(self, svc: InstanceServices, env: Env) -> None:
        """Establish ``env.cursor_ts`` and load replay state."""

    @abstractmethod
    def read(self, svc: InstanceServices, env: Env, key: str) -> Any:
        ...

    @abstractmethod
    def write(self, svc: InstanceServices, env: Env, key: str,
              value: Any) -> None:
        ...

    @abstractmethod
    def invoke(self, svc: InstanceServices, env: Env, func_name: str,
               input: Any, invoker: Invoker) -> Any:
        ...

    def sync(self, svc: InstanceServices, env: Env) -> None:
        """Advance the cursorTS to the current log tail (no-op by default,
        meaningful only for logged protocols)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class LoggedProtocol(Protocol):
    """Base class for protocols that keep a per-SSF step log."""

    # ------------------------------------------------------------------
    # Step-log helpers
    # ------------------------------------------------------------------

    def _load_step_logs(self, svc: InstanceServices, env: Env) -> None:
        """``getStepLogs(env.ID)``: retrieve the SSF's execution history."""
        env.step_logs = {}
        for record in svc.log_read_stream(instance_tag(env.instance_id)):
            env.record_step(record)

    def _next_step(self, env: Env):
        """Advance to the next logged step; return its replay record."""
        env.step += 1
        return env.replay_record()

    def _log_step(
        self,
        svc: InstanceServices,
        env: Env,
        extra_tags: Sequence[str],
        data: Mapping[str, Any],
        payload_bytes: int = 0,
        synchronous: bool = True,
        control: bool = False,
    ) -> Tuple[int, Mapping[str, Any]]:
        """Append the current step's record via ``logCondAppend``.

        Returns ``(seqnum, data)`` of the record that now occupies this
        step — ours if the conditional append won, the peer instance's if
        it lost (the loser adopts the winner's record and proceeds with
        identical state, Section 5.1).
        """
        tag = instance_tag(env.instance_id)
        payload = dict(data)
        payload["step"] = env.step
        try:
            seqnum = svc.log_cond_append(
                tags=[tag, *extra_tags],
                data=payload,
                cond_tag=tag,
                cond_pos=env.step,
                payload_bytes=payload_bytes,
                synchronous=synchronous,
                control=control,
            )
            return seqnum, payload
        except ConditionalAppendError:
            record = svc.log_record_at(tag, env.step)
            if record.step != env.step:
                raise ProtocolError(
                    f"step log corruption: expected step {env.step}, "
                    f"found {record.step}"
                )
            env.record_step(record)
            return record.seqnum, record.data

    # ------------------------------------------------------------------
    # Init (Figure 5, shared by every logged protocol)
    # ------------------------------------------------------------------

    def init(self, svc: InstanceServices, env: Env) -> None:
        self._load_step_logs(svc, env)
        env.step = 0
        env.consecutive_writes = 0
        existing = env.step_logs.get(0)
        if existing is not None:
            env.cursor_ts = existing.seqnum
        else:
            # The init record checkpoints nothing and only serves to bring
            # the cursorTS up to date (Section 4.3 notes it is not needed
            # for idempotence), so the append overlaps with the SSF's
            # first operations: the sequencer returns the seqnum
            # immediately and replication completes off the critical path.
            seqnum, _ = self._log_step(
                svc, env, extra_tags=(), data={"op": "init"},
                control=True,
            )
            env.cursor_ts = seqnum
        env.init_cursor_ts = env.cursor_ts

    # ------------------------------------------------------------------
    # Invoke (Figure 5, shared): pin the callee id, then log the result.
    # ------------------------------------------------------------------

    def invoke(self, svc: InstanceServices, env: Env, func_name: str,
               input: Any, invoker: Invoker) -> Any:
        # Step 1: pin the callee's instance id.  The prototype draws it at
        # random and turns it into a deterministic operation by logging it
        # before use (Section 4.1), exactly like write version numbers.
        record = self._next_step(env)
        if record is not None:
            callee_id = record["callee"]
            env.advance_cursor(record.seqnum)
        else:
            seqnum, data = self._log_step(
                svc, env, extra_tags=(),
                data={
                    "op": "invoke-intent",
                    "func": func_name,
                    "callee": svc.random_hex(),
                },
                control=True,
            )
            callee_id = data["callee"]
            env.advance_cursor(seqnum)

        # Step 2: run the callee unless its result is already logged.
        record = self._next_step(env)
        if record is not None:
            env.advance_cursor(record.seqnum)
            return record["result"]
        svc.charge_invoke_overhead()
        result = invoker(callee_id, func_name, input, env)
        # The result record is a progress checkpoint (replay shortcut);
        # the caller can continue while it replicates, because a crash in
        # the window simply re-invokes the (idempotent) callee.
        seqnum, data = self._log_step(
            svc, env, extra_tags=(),
            data={"op": "invoke", "func": func_name, "result": result},
            control=True,
        )
        env.advance_cursor(seqnum)
        return data["result"]

    # ------------------------------------------------------------------
    # Linearizable sync (Section 4.4)
    # ------------------------------------------------------------------

    def sync(self, svc: InstanceServices, env: Env) -> None:
        record = self._next_step(env)
        if record is not None:
            env.advance_cursor(record.seqnum)
            return
        seqnum, _ = self._log_step(
            svc, env, extra_tags=(), data={"op": "sync"}
        )
        env.advance_cursor(seqnum)
