"""Direct-mode serverless runtime.

Executes SSFs synchronously against the in-memory substrates, with full
crash/retry semantics and per-request latency accounting (the cost trace
accumulates calibrated latency samples even though wall-clock execution is
instant).  This is the mode used by unit/property tests, the examples, and
any experiment that does not need closed-loop queueing effects.

Three entry points:

* :meth:`LocalRuntime.invoke` — run a registered SSF to completion,
  retrying on injected crashes, and return an :class:`InvocationResult`;
* :meth:`LocalRuntime.open_session` — a *manually driven* invocation for
  tests that interleave operations of concurrent SSFs or peer instances
  step by step;
* :meth:`LocalRuntime.populate` — install initial objects in both
  versioning schemas (setup phase, charged to nobody).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..config import SystemConfig
from ..errors import (
    CrashError,
    InvocationError,
    RetriesExhaustedError,
    ServiceFaultError,
)
from ..observe import CAT_ATTEMPT, CAT_INVOCATION, Span
from ..protocols import Protocol
from ..simulation.rng import RngRegistry
from ..store import TableIndex
from .env import Env
from .gc import GarbageCollector
from .failures import CrashPolicy, NoCrashes
from .ops import ComputeOp, InvokeOp, Op, ReadOp, SyncOp, TxnOp, WriteOp
from .registry import FunctionRegistry, InvocationTracker
from .services import InstanceServices, ServiceBackend
from .switching import ProtocolRouter, SwitchManager
from .tags import object_tag


@dataclass
class InvocationResult:
    instance_id: str
    output: Any
    latency_ms: float
    attempts: int
    #: Per cost-kind milliseconds summed over every attempt (plus the
    #: synthetic ``failure_detection`` segment after a lost attempt);
    #: the values sum exactly to ``latency_ms``.
    cost_by_kind: Dict[str, float] = field(default_factory=dict)


class Context:
    """The handle SSF bodies use to touch external state (ctx style)."""

    def __init__(self, runtime: "LocalRuntime", svc: InstanceServices,
                 env: Env):
        self._runtime = runtime
        self.svc = svc
        self.env = env

    def read(self, key: str) -> Any:
        if key in self._runtime.read_only_keys:
            # Section 7: reads of read-only objects are inherently
            # idempotent — no logging, no version lookup.
            return self.svc.db_read(key)
        protocol = self._runtime.router.protocol_for(self.svc, self.env, key)
        return protocol.read(self.svc, self.env, key)

    def write(self, key: str, value: Any) -> None:
        if key in self._runtime.read_only_keys:
            from ..errors import ProtocolError

            raise ProtocolError(
                f"key {key!r} was declared read-only"
            )
        protocol = self._runtime.router.protocol_for(self.svc, self.env, key)
        protocol.write(self.svc, self.env, key, value)

    def invoke(self, func_name: str, input: Any = None) -> Any:
        protocol = self._runtime.router.control_protocol()

        def invoker(callee_id: str, fname: str, inp: Any, _env: Env) -> Any:
            # The child is a full invocation of its own (own retries); the
            # parent blocks on it, so the child's end-to-end latency is
            # charged to the parent's trace as one entry.
            child = self._runtime.invoke(fname, inp, instance_id=callee_id)
            self.svc.trace.charge("child", child.latency_ms)
            return child.output

        return protocol.invoke(self.svc, self.env, func_name, input, invoker)

    def sync(self) -> None:
        """Advance the cursorTS to the log tail for linearizable access."""
        self._runtime.router.control_protocol().sync(self.svc, self.env)

    def trigger(self, func_name: str, input: Any = None) -> None:
        """Register a downstream invocation fired after this SSF completes
        (Section 4.4's trigger edges).

        The paper's real-time boundary property makes triggers the
        recommended way to order dependent work: the callee's init record
        is appended after every effect of this SSF, so it observes them
        all.  Registration is a logged step — replay re-registers the
        same callee id, and the runtime fires each trigger exactly once.
        """
        protocol = self._runtime.router.control_protocol()
        from ..protocols.base import LoggedProtocol

        if not isinstance(protocol, LoggedProtocol):
            from ..errors import ProtocolError

            raise ProtocolError(
                f"triggers require a logged protocol "
                f"(got {protocol.name!r})"
            )
        record = protocol._next_step(self.env)
        if record is not None:
            callee_id = record["callee"]
            self.env.advance_cursor(record.seqnum)
        else:
            seqnum, data = protocol._log_step(
                self.svc, self.env, extra_tags=(),
                data={
                    "op": "trigger-intent",
                    "func": func_name,
                    "callee": self.svc.random_hex(),
                },
                control=True,
            )
            callee_id = data["callee"]
            self.env.advance_cursor(seqnum)
        self.env.pending_triggers.append((callee_id, func_name, input))

    def transaction(self, body, max_attempts: int = 5) -> Any:
        """Run ``body(txn)`` atomically with OCC retries (see
        :mod:`repro.runtime.transactions`)."""
        from .transactions import run_transaction

        return run_transaction(self, body, max_attempts)

    def scan(self, table: str) -> Dict[str, Any]:
        """Read every row of a logical table (Section 4.1's remark).

        Routed through the protocol per key, so under Halfmoon-read all
        rows resolve against the same cursorTS — a consistent snapshot
        assembled via the write log — while logged-read protocols return
        (and log) the latest value of each row.  Keys with no visible
        write are omitted.
        """
        from ..errors import KeyMissingError

        rows: Dict[str, Any] = {}
        for key in self._runtime.table_index.keys_of(table):
            try:
                rows[key] = self.read(key)
            except KeyMissingError:
                continue
        return rows

    def compute(self) -> None:
        """Charge the configured pure-compute time of an SSF body."""
        self.svc.charge_compute()

    def apply(self, op: Op) -> Any:
        """Execute one op descriptor (generator-style bodies)."""
        if isinstance(op, ReadOp):
            return self.read(op.key)
        if isinstance(op, WriteOp):
            return self.write(op.key, op.value)
        if isinstance(op, InvokeOp):
            return self.invoke(op.func_name, op.input)
        if isinstance(op, ComputeOp):
            for _ in range(max(1, round(
                op.duration_ms
                / max(self._runtime.config.latency.function_compute_ms,
                      1e-9)
            ))):
                self.svc.charge_compute()
            sleep = self._runtime.compute_sleep_fn
            if sleep is not None:
                # Live compute plane: burn real wall time so invocations
                # genuinely overlap across worker processes.
                sleep(op.duration_ms)
            return None
        if isinstance(op, SyncOp):
            return self.sync()
        if isinstance(op, TxnOp):
            return self.transaction(op.body, op.max_attempts)
        raise InvocationError(f"unknown op descriptor: {op!r}")


class LocalRuntime:
    """Synchronous runtime over the shared in-memory substrates."""

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        protocol: str = "halfmoon-read",
        crash_policy: Optional[CrashPolicy] = None,
        enable_switching: bool = False,
        backend: Optional[ServiceBackend] = None,
    ):
        self.config = (config if config is not None
                       else SystemConfig()).validate()
        self.backend = (backend if backend is not None
                        else ServiceBackend(self.config))
        self.functions = FunctionRegistry()
        self.tracker = InvocationTracker()
        self.crash_policy = (crash_policy if crash_policy is not None
                             else NoCrashes())
        self.switch_manager: Optional[SwitchManager] = None
        if enable_switching:
            self.switch_manager = SwitchManager(
                self.backend, self.tracker, initial_protocol=protocol
            )
        self.router = ProtocolRouter(
            default_protocol=protocol,
            protocol_config=self.config.protocol,
            switch_manager=self.switch_manager,
        )
        self.gc = GarbageCollector(self.backend, self.tracker)
        self.table_index = TableIndex()
        #: Keys declared immutable (Section 7): reads bypass the logging
        #: protocol entirely, writes are rejected.
        self.read_only_keys: set = set()
        self._id_rng = self.backend.rng.stream("instance-ids")
        #: Base clock for trace timestamps.  Direct mode runs at virtual
        #: time 0; the DES platform points this at its simulation clock
        #: so child invocations (``ctx.invoke`` runs them synchronously
        #: through this runtime) produce spans anchored at the parent's
        #: simulated instant.
        self.now_fn: Callable[[], float] = lambda: 0.0
        #: Optional ``sleep(duration_ms)`` for ComputeOp steps.  Unset
        #: (the default) keeps compute purely virtual; the live compute
        #: plane's workers point it at a wall-clock sleep so concurrent
        #: invocations really overlap.
        self.compute_sleep_fn: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def register(self, name: str, fn: Callable) -> None:
        self.functions.register(name, fn)

    def populate(self, key: str, value: Any,
                 table: Optional[str] = None) -> None:
        """Install an initial object, visible to every protocol.

        Writes the LATEST slot (genesis version attribute) and a
        ``genesis`` object version committed in the write log, so both
        Halfmoon-read and Halfmoon-write see the value immediately.
        ``table`` optionally registers the key in a logical table for
        ``ctx.scan``.  Setup work: no latency is charged and no SSF is
        involved.
        """
        if table is not None:
            self.table_index.register(table, key)
        backend = self.backend
        backend.kv.put(key, value, backend.value_bytes)
        version_number = "genesis"
        backend.mv.write_version(
            key, version_number, value, backend.value_bytes
        )
        tag = object_tag(key)
        seqnum = backend.log.append(
            [tag],
            {"op": "write", "key": key, "version": version_number},
        )
        placement = backend.log_placement(tag)
        backend.cache.insert(
            seqnum, placement[1] if placement is not None else 0
        )

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def new_instance_id(self) -> str:
        return f"{int(self._id_rng.integers(0, 1 << 63)):016x}"

    def invoke(
        self,
        func_name: str,
        input: Any = None,
        instance_id: Optional[str] = None,
        start_seqnum: Optional[int] = None,
    ) -> InvocationResult:
        """Run ``func_name`` to completion with crash/retry semantics.

        ``start_seqnum`` is a log frontier the caller already read on
        this invocation's behalf (the live gateway stamps one on the
        INVOKE frame); any frontier read no later than now is a valid,
        merely more conservative, GC/switching watermark, and passing
        it saves the log round trip of reading a fresh one.
        """
        instance_id = (instance_id if instance_id is not None
                       else self.new_instance_id())
        total_latency = 0.0
        cost_by_kind: Dict[str, float] = {}
        max_attempts = self.config.failures.max_retries + 1
        self.tracker.start(
            instance_id,
            start_seqnum if start_seqnum is not None
            else self.backend.log.next_seqnum,
        )
        tracer = self.backend.tracer
        root: Optional[Span] = None
        base = 0.0
        if tracer is not None:
            base = self.now_fn()
            root = tracer.start_span(
                f"invoke:{func_name}", CAT_INVOCATION, base,
                trace_id=instance_id, func=func_name,
            )

        def absorb(svc: InstanceServices) -> None:
            for kind, ms, _placement in svc.trace.entries:
                cost_by_kind[kind] = cost_by_kind.get(kind, 0.0) + ms

        for attempt in range(1, max_attempts + 1):
            hook = self.crash_policy.hook_for(instance_id, attempt)
            svc = InstanceServices(self.backend, fault_hook=hook)
            attempt_span: Optional[Span] = None
            if root is not None:
                attempt_span = root.child(
                    f"attempt-{attempt}", CAT_ATTEMPT,
                    base + total_latency, attempt=attempt,
                )
                svc.attach_span(attempt_span, base + total_latency)
            env = Env(
                instance_id=instance_id,
                input=input,
                func_name=func_name,
                attempt=attempt,
            )
            detection_ms = self.config.failures.detection_delay_ms
            try:
                output = self._execute(svc, env, func_name, input)
            except CrashError:
                # Fault dimension 1: the instance itself died.  Charge
                # what the attempt spent plus failure detection, then
                # re-execute (the protocols make the replay idempotent).
                total_latency += svc.trace.total_ms()
                absorb(svc)
                if attempt_span is not None:
                    attempt_span.annotate("crash", base + total_latency)
                    attempt_span.finish(base + total_latency)
                total_latency += detection_ms
                cost_by_kind["failure_detection"] = (
                    cost_by_kind.get("failure_detection", 0.0)
                    + detection_ms
                )
                continue
            except ServiceFaultError as fault:
                # Fault dimension 2: a substrate kept failing past the
                # per-operation retry budget.  Retryable faults abandon
                # the attempt exactly like a crash — replay is safe for
                # the same reason — while permanent ones escalate.
                total_latency += svc.trace.total_ms()
                absorb(svc)
                if attempt_span is not None:
                    attempt_span.annotate(
                        "service-fault", base + total_latency,
                        retryable=fault.retryable,
                    )
                    attempt_span.finish(base + total_latency)
                if not fault.retryable:
                    if root is not None:
                        root.finish(base + total_latency)
                    raise
                total_latency += detection_ms
                cost_by_kind["failure_detection"] = (
                    cost_by_kind.get("failure_detection", 0.0)
                    + detection_ms
                )
                self.backend.counters.add("attempts_lost_to_service_faults")
                continue
            total_latency += svc.trace.total_ms()
            absorb(svc)
            if attempt_span is not None:
                attempt_span.finish(base + total_latency)
            if root is not None:
                root.finish(base + total_latency)
            # Fire trigger edges: downstream SSFs start strictly after
            # this invocation's effects, so the paper's real-time
            # boundary property orders them after everything above.
            for callee_id, trig_fn, trig_input in env.pending_triggers:
                self.invoke(trig_fn, trig_input, instance_id=callee_id)
            self.tracker.finish(instance_id)
            return InvocationResult(
                instance_id=instance_id,
                output=output,
                latency_ms=total_latency,
                attempts=attempt,
                cost_by_kind=cost_by_kind,
            )
        if root is not None:
            root.annotate("retries-exhausted", base + total_latency)
            root.finish(base + total_latency)
        raise RetriesExhaustedError(
            f"{func_name!r} ({instance_id}) lost every one of "
            f"{max_attempts} attempts to crashes or service faults"
        )

    def _execute(self, svc: InstanceServices, env: Env,
                 func_name: str, input: Any) -> Any:
        protocol = self.router.control_protocol()
        protocol.init(svc, env)
        self.tracker.set_init_ts(env.instance_id, env.init_cursor_ts)
        ctx = Context(self, svc, env)
        fn = self.functions.get(func_name)
        svc.charge_compute()
        if FunctionRegistry.is_generator_style(fn):
            return self._drive_generator(ctx, fn, input)
        return fn(ctx, input)

    @staticmethod
    def _drive_generator(ctx: Context, fn: Callable, input: Any) -> Any:
        gen = fn(input)
        result: Any = None
        try:
            op = next(gen)
            while True:
                op = gen.send(ctx.apply(op))
        except StopIteration as stop:
            result = stop.value
        return result

    # ------------------------------------------------------------------
    # Manual sessions (for interleaving tests)
    # ------------------------------------------------------------------

    def open_session(
        self,
        instance_id: Optional[str] = None,
        fault_hook=None,
        input: Any = None,
    ) -> "Session":
        instance_id = (instance_id if instance_id is not None
                       else self.new_instance_id())
        svc = InstanceServices(self.backend, fault_hook=fault_hook)
        env = Env(instance_id=instance_id, input=input)
        self.tracker.start(instance_id, self.backend.log.next_seqnum)
        tracer = self.backend.tracer
        if tracer is not None:
            base = self.now_fn()
            span = tracer.start_span(
                "session", CAT_INVOCATION, base, trace_id=instance_id,
            )
            svc.attach_span(span, base)
        return Session(self, svc, env)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def set_object_protocol(self, key: str, protocol_name: str) -> None:
        """Pin ``key`` to a specific Halfmoon protocol (Section 4.6's
        per-object deployment).  Configure before serving traffic."""
        self.router.assign_object(key, protocol_name)

    def mark_read_only(self, key: str) -> None:
        """Declare ``key`` immutable (Section 7): its reads are
        inherently idempotent, so they bypass logging and versioning;
        writes to it become errors."""
        self.read_only_keys.add(key)

    def run_gc(self):
        return self.gc.collect()

    def begin_switch(self, target: str) -> int:
        if self.switch_manager is None:
            raise InvocationError(
                "runtime built without enable_switching=True"
            )
        return self.switch_manager.begin_switch(target)

    def storage_bytes(self) -> Dict[str, int]:
        return {
            "log": self.backend.log.storage_bytes(),
            "db": self.backend.kv.storage_bytes(),
            "total": (self.backend.log.storage_bytes()
                      + self.backend.kv.storage_bytes()),
        }


class Session(Context):
    """A manually driven invocation: call :meth:`init`, then operations,
    then :meth:`finish`.  Lets tests interleave concurrent SSFs and peer
    instances at operation granularity."""

    def __init__(self, runtime: LocalRuntime, svc: InstanceServices,
                 env: Env):
        super().__init__(runtime, svc, env)
        self._finished = False

    def init(self) -> "Session":
        protocol = self._runtime.router.control_protocol()
        protocol.init(self.svc, self.env)
        self._runtime.tracker.set_init_ts(
            self.env.instance_id, self.env.init_cursor_ts
        )
        return self

    def replay(self, fault_hook=None) -> "Session":
        """Open a *new attempt* of the same invocation (post-crash or peer
        instance): same instance id, fresh execution state."""
        svc = InstanceServices(self._runtime.backend, fault_hook=fault_hook)
        env = Env(
            instance_id=self.env.instance_id,
            input=self.env.input,
            attempt=self.env.attempt + 1,
        )
        parent = self.svc.span
        if parent is not None:
            now = self.svc.now_ms()
            svc.attach_span(
                parent.child(
                    f"attempt-{env.attempt}", CAT_ATTEMPT, now,
                    attempt=env.attempt,
                ),
                now,
            )
        return Session(self._runtime, svc, env)

    def finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._runtime.tracker.finish(self.env.instance_id)
            span = self.svc.span
            if span is not None and not span.finished:
                span.finish(self.svc.now_ms())

    @property
    def latency_ms(self) -> float:
        return self.svc.trace.total_ms()
