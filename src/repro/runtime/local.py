"""Direct-mode serverless runtime.

Executes SSFs synchronously against the in-memory substrates, with full
crash/retry semantics and per-request latency accounting (the cost trace
accumulates calibrated latency samples even though wall-clock execution is
instant).  This is the mode used by unit/property tests, the examples, and
any experiment that does not need closed-loop queueing effects.

Entry points:

* :meth:`LocalRuntime.run_instance` — the invocation lifecycle (attempt
  loop) every mode shares, as a generator its driver paces;
* :meth:`LocalRuntime.invoke` — its direct-mode driver: run a registered
  SSF to completion, retrying on injected crashes, and return an
  :class:`InvocationResult`;
* :meth:`LocalRuntime.open_session` — a *manually driven* invocation for
  tests that interleave operations of concurrent SSFs or peer instances
  step by step;
* :meth:`LocalRuntime.populate` — install initial objects in both
  versioning schemas (setup phase, charged to nobody).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, NamedTuple, Optional

from ..config import FUNCTION_COMPUTE_MS, SystemConfig
from ..errors import (
    CrashError,
    InvocationError,
    RetriesExhaustedError,
    ServiceFaultError,
)
from ..observe import CAT_ATTEMPT, CAT_INVOCATION, Span
from ..protocols import Protocol
from ..simulation.rng import IntegerDrawBatch
from ..store import TableIndex
from ..tags import object_tag
from .env import Env
from .gc import GarbageCollector
from .failures import CrashPolicy, NoCrashes
from .ops import ComputeOp, InvokeOp, Op, ReadOp, SyncOp, TxnOp, WriteOp
from .registry import FunctionRegistry, InvocationTracker
from .services import InstanceServices, ServiceBackend
from .switching import ProtocolRouter, SwitchManager


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
    #: How many of the lost attempts were lost to a ``ServiceFaultError``
    #: (the rest to a crash).
    faulted_attempts: int = 0


def _absorb(cost_by_kind: Dict[str, float], svc: InstanceServices) -> None:
    """Add a finished attempt's charges to the per-kind totals."""
    for kind, ms, _placement in svc.trace.entries:
        cost_by_kind[kind] = cost_by_kind.get(kind, 0.0) + ms


class LostAttempt(NamedTuple):
    """A pause of :meth:`LocalRuntime.run_instance`: an attempt was lost
    to ``cause`` (a :class:`CrashError` or a retryable
    :class:`ServiceFaultError`).  The driver lets ``svc.trace`` and then
    ``detection_ms`` (the platform noticing the loss) elapse, and sends
    the instant between the two back into the generator."""

    svc: InstanceServices
    detection_ms: float
    cause: BaseException


class Context:
    """The handle SSF bodies use to touch external state (ctx style)."""

    def __init__(self, runtime: "LocalRuntime", svc: InstanceServices,
                 env: Env):
        self._runtime = runtime
        self.svc = svc
        self.env = env

    @classmethod
    def open(cls, runtime: "LocalRuntime", instance_id: str,
             input: Any = None, func_name: str = "", attempt: int = 1,
             fault_hook=None, span: Optional[Span] = None,
             now_ms: float = 0.0):
        """Fresh execution state for one attempt — the package's only
        constructor of :class:`InstanceServices` and :class:`Env`, shared
        by the attempt loop and the manual sessions.  ``span`` (started
        at ``now_ms``) parents the attempt's service-call spans."""
        svc = InstanceServices(runtime.backend, fault_hook=fault_hook)
        if span is not None:
            svc.attach_span(span, now_ms)
        env = Env(instance_id=instance_id, input=input,
                  func_name=func_name, attempt=attempt)
        return cls(runtime, svc, env)

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
            charges = max(1, round(op.duration_ms / FUNCTION_COMPUTE_MS))
            for _ in range(charges):
                self.svc.charge_compute()
            sleep = self._runtime.compute_sleep_fn
            if sleep is not None and op.duration_ms > 0:
                # Live compute plane: burn real wall time so invocations
                # genuinely overlap across worker processes (a zero-length
                # sleep is still a syscall: skip it).
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
        self._instance_ids = IntegerDrawBatch(
            self.backend.rng.stream("instance-ids"), 1 << 63
        )
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
        backend.cache.insert(seqnum, backend.log_shard_of(tag))

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def new_instance_id(self) -> str:
        return f"{self._instance_ids.next_int():016x}"

    def run_instance(self, func_name: str, input: Any, instance_id: str,
                     now: Callable[[], float], paced: bool,
                     root: Optional[Span] = None, first_attempt: int = 1,
                     **span_attrs: Any):
        """The one invocation lifecycle, a generator every plane drives.

        The failure model (§3) is one rule: an instance may die anywhere,
        the platform re-executes it until it finishes, and the logging
        protocol makes the replay idempotent.  Drivers differ only in
        how time passes, which is all the generator leaves to them: it
        yields the attempt's :class:`InstanceServices` at the end of the
        attempt — and, for a ``paced`` driver, whose clock only moves
        between pauses, also after init and after every op of a
        generator-style body — for the driver to let ``svc.trace``
        elapse, and one :class:`LostAttempt` per lost attempt.  ``now``
        is the driver's clock, read only when ``root`` (the invocation
        span the driver opened) is given; ``span_attrs`` label the
        attempt spans.  Returns ``(output, attempts, pending_triggers)``
        — the triggers are the driver's to fire.

        A terminal failure (retries exhausted, a permanent service
        fault, a raising SSF body) releases the tracker entry before it
        propagates: no replay is owed, so nothing will read the step log
        again.  A driver that abandons the generator (node crash) keeps
        the entry for the takeover.
        """
        tracker = self.tracker
        failures = self.config.failures
        detection_ms = failures.detection_delay_ms
        max_attempts = failures.max_retries + 1
        try:
            fn, generator_style = self.functions.resolve(func_name)
            for attempt in range(first_attempt, max_attempts + 1):
                span: Optional[Span] = None
                started = 0.0
                if root is not None:
                    started = now()
                    span = root.child(
                        f"attempt-{attempt}", CAT_ATTEMPT, started,
                        attempt=attempt, **span_attrs,
                    )
                ctx = Context.open(
                    self, instance_id, input, func_name, attempt,
                    self.crash_policy.hook_for(instance_id, attempt),
                    span, started,
                )
                svc = ctx.svc
                env = ctx.env
                output: Any = None
                try:
                    self.router.control_protocol().init(svc, env)
                    tracker.set_init_ts(instance_id, env.init_cursor_ts)
                    if paced:
                        yield svc
                    svc.charge_compute()
                    if generator_style:
                        body = fn(input)
                        apply_op = ctx.apply
                        try:
                            op = next(body)
                            send = body.send
                            while True:
                                result = apply_op(op)
                                if paced:
                                    yield svc
                                op = send(result)
                        except StopIteration as stop:
                            output = stop.value
                    else:
                        output = fn(ctx, input)
                    yield svc
                except (CrashError, ServiceFaultError) as cause:
                    # Fault dimension 1: the instance itself died.
                    # Dimension 2: a substrate kept failing past the
                    # per-operation retry budget; retryable faults
                    # abandon the attempt exactly like a crash — replay
                    # is safe for the same reason — while permanent
                    # ones escalate.
                    crashed = isinstance(cause, CrashError)
                    retry = crashed or cause.retryable
                    if retry:
                        # The loss is stamped at its own instant; the
                        # detection delay stays outside the span.
                        lost_at = yield LostAttempt(
                            svc, detection_ms, cause
                        )
                    else:
                        yield svc
                        lost_at = now()
                    if span is not None:
                        if crashed:
                            span.annotate("crash", lost_at)
                        else:
                            span.annotate("service-fault", lost_at,
                                          retryable=cause.retryable)
                        span.finish(lost_at)
                    if not retry:
                        if root is not None:
                            root.finish(lost_at)
                        raise
                    continue
                if root is not None:
                    done = now()
                    span.finish(done)
                    root.finish(done)
                tracker.finish(instance_id)
                return output, attempt, env.pending_triggers
            if root is not None:
                done = now()
                root.annotate("retries-exhausted", done)
                root.finish(done)
            raise RetriesExhaustedError(
                f"{func_name!r} ({instance_id}) lost every one of "
                f"{max_attempts} attempts to crashes or service faults"
            )
        except Exception:
            tracker.finish(instance_id)
            raise

    def invoke(
        self,
        func_name: str,
        input: Any = None,
        instance_id: Optional[str] = None,
        start_seqnum: Optional[int] = None,
        first_attempt: int = 1,
    ) -> InvocationResult:
        """Run ``func_name`` to completion with crash/retry semantics.

        The direct-mode (and live-worker) driver of :meth:`run_instance`:
        nothing waits, so time passes as the cost traces accumulate and
        one pause per attempt is enough.

        ``start_seqnum`` is a log frontier the caller already read on
        this invocation's behalf (the live gateway stamps one on the
        INVOKE frame); any frontier read no later than now is a valid,
        merely more conservative, GC/switching watermark, and passing
        it saves the log round trip of reading a fresh one.
        ``first_attempt`` numbers the first attempt made here: above 1
        when the caller took the instance over from a dead node.
        """
        instance_id = (instance_id if instance_id is not None
                       else self.new_instance_id())
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
        cost_by_kind: Dict[str, float] = {}
        # Milliseconds of the lost attempts and their detection delays;
        # the attempt in progress (``svc``) still holds its own.
        spent = 0.0
        faulted_attempts = 0
        svc: Optional[InstanceServices] = None

        def now() -> float:
            running = svc.trace.total_ms() if svc is not None else 0.0
            return base + (spent + running)

        resume = self.run_instance(
            func_name, input, instance_id, now, False, root, first_attempt
        ).send
        try:
            pause = resume(None)
            while True:
                if pause.__class__ is not LostAttempt:
                    svc = pause
                    pause = resume(None)
                    continue
                spent += pause.svc.trace.total_ms()
                _absorb(cost_by_kind, pause.svc)
                svc = None
                lost_at = base + spent
                spent += pause.detection_ms
                cost_by_kind["failure_detection"] = (
                    cost_by_kind.get("failure_detection", 0.0)
                    + pause.detection_ms
                )
                if isinstance(pause.cause, ServiceFaultError):
                    faulted_attempts += 1
                    self.backend.counters.add(
                        "attempts_lost_to_service_faults"
                    )
                pause = resume(lost_at)
        except StopIteration as stop:
            output, attempts, pending_triggers = stop.value
        _absorb(cost_by_kind, svc)
        # Fire trigger edges: downstream SSFs start strictly after
        # this invocation's effects, so the paper's real-time
        # boundary property orders them after everything above.
        for callee_id, trig_fn, trig_input in pending_triggers:
            self.invoke(trig_fn, trig_input, instance_id=callee_id)
        return InvocationResult(
            instance_id=instance_id,
            output=output,
            latency_ms=spent + svc.trace.total_ms(),
            attempts=attempts,
            cost_by_kind=cost_by_kind,
            faulted_attempts=faulted_attempts,
        )

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
        self.tracker.start(instance_id, self.backend.log.next_seqnum)
        tracer = self.backend.tracer
        span: Optional[Span] = None
        base = 0.0
        if tracer is not None:
            base = self.now_fn()
            span = tracer.start_span(
                "session", CAT_INVOCATION, base, trace_id=instance_id,
            )
        return Session.open(
            self, instance_id, input, fault_hook=fault_hook,
            span=span, now_ms=base,
        )

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
        attempt = self.env.attempt + 1
        parent = self.svc.span
        span: Optional[Span] = None
        now = 0.0
        if parent is not None:
            now = self.svc.now_ms()
            span = parent.child(
                f"attempt-{attempt}", CAT_ATTEMPT, now, attempt=attempt,
            )
        return Session.open(
            self._runtime, self.env.instance_id, self.env.input,
            attempt=attempt, fault_hook=fault_hook, span=span, now_ms=now,
        )

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
