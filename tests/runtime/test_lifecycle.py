"""The one invocation lifecycle (``LocalRuntime.run_instance``) as seen
through its two in-process drivers: direct mode and the DES.

Pins what used to differ between the two copies of the attempt loop:
a terminal failure releases the tracker entry, the ``crash`` /
``service-fault`` annotation sits at the instant of the loss, and each
lost attempt is counted once, by cause, in the counters each driver
exposes.
"""

import ast
import pathlib

import pytest

import repro
from repro import LocalRuntime, ScriptedCrashes, SystemConfig
from repro.config import ClusterConfig, FailureConfig
from repro.errors import (
    RetriesExhaustedError,
    ServiceFaultError,
    TransientServiceError,
)
from repro.harness import SimPlatform
from repro.observe import CAT_ATTEMPT, Tracer
from repro.workloads.base import Request, Workload

DETECTION_MS = 7.0


def config(**failures):
    return SystemConfig(
        seed=77,
        cluster=ClusterConfig(function_nodes=1, workers_per_node=2),
        failures=FailureConfig(detection_delay_ms=DETECTION_MS,
                               **failures),
    )


def bump(ctx, inp):
    ctx.write("counter", ctx.read("counter") + 1)


def outage(ctx, inp):
    ctx.read("counter")
    raise ServiceFaultError("store is gone for good", service="store")


def flaky(ctx, inp):
    ctx.read("counter")
    if ctx.env.attempt == 1:
        raise TransientServiceError("store hiccup", service="store")


class OneFunction(Workload):
    name = "one-function"

    def __init__(self, func_name):
        self.func_name = func_name

    def register(self, runtime) -> None:
        runtime.register("bump", bump)
        runtime.register("outage", outage)
        runtime.register("flaky", flaky)

    def populate(self, runtime) -> None:
        runtime.populate("counter", 0)

    def next_request(self, rng) -> Request:
        return Request(self.func_name, None)

    def read_write_profile(self):
        return (1.0, 1.0)


ALWAYS_CRASH = ScriptedCrashes({1: 2, 2: 2, 3: 2})

#: (function, crash policy, max_retries, the error that ends it)
TERMINAL = {
    "retries-exhausted": ("bump", ALWAYS_CRASH, 2, RetriesExhaustedError),
    "permanent-fault": ("outage", None, 2, ServiceFaultError),
}


def direct_runtime(func_name, crash_policy, max_retries=2, tracer=None):
    runtime = LocalRuntime(
        config(max_retries=max_retries), protocol="halfmoon-read",
        crash_policy=crash_policy, enable_switching=True,
    )
    runtime.backend.tracer = tracer
    workload = OneFunction(func_name)
    workload.register(runtime)
    workload.populate(runtime)
    return runtime


def des_platform(func_name, crash_policy, max_retries=2, tracer=None):
    platform = SimPlatform(
        OneFunction(func_name), "halfmoon-read",
        config(max_retries=max_retries),
        enable_switching=True, tracer=tracer,
    )
    if crash_policy is not None:
        platform.runtime.crash_policy = crash_policy
    return platform


def assert_released(runtime):
    """Nothing owes a replay, so nothing holds GC or switching back."""
    tracker = runtime.tracker
    assert tracker.running_count == 0
    assert tracker.orphan_count == 0
    frontier = runtime.backend.log.next_seqnum
    assert tracker.safe_seqnum(frontier) == frontier
    assert runtime.run_gc().last_safe_seqnum >= frontier
    runtime.begin_switch("halfmoon-write")
    assert not runtime.switch_manager.in_progress


@pytest.mark.parametrize("case", sorted(TERMINAL))
def test_terminal_failure_releases_tracker_direct(case):
    func_name, policy, max_retries, error = TERMINAL[case]
    runtime = direct_runtime(func_name, policy, max_retries)
    with pytest.raises(error):
        runtime.invoke(func_name)
    assert_released(runtime)


@pytest.mark.parametrize("case", sorted(TERMINAL))
def test_terminal_failure_releases_tracker_des(case):
    func_name, policy, max_retries, error = TERMINAL[case]
    platform = des_platform(func_name, policy, max_retries)
    # 1 request/s: the first arrival fails terminally with nothing
    # else in flight, and the failure aborts the run.
    with pytest.raises(error):
        platform.run(1.0, 60_000.0)
    assert_released(platform.runtime)


def assert_losses_stamped_at_their_instant(tracer, label):
    """In every traced invocation the lost attempt's span ends where the
    loss is annotated, after everything the attempt did; the detection
    delay is the gap to the next attempt, outside both spans."""
    events = []
    for trace_id in tracer.trace_ids():
        lost, retry = sorted(
            (span for span in tracer.spans_for(trace_id)
             if span.category == CAT_ATTEMPT),
            key=lambda span: span.start_ms,
        )
        assert (lost.name, retry.name) == ("attempt-1", "attempt-2")
        (event,) = [e for e in lost.events if e.name == label]
        assert event.ts_ms == lost.end_ms
        assert lost.end_ms > lost.start_ms
        for call in tracer.children_of(lost):
            assert call.end_ms <= lost.end_ms
        assert retry.start_ms == pytest.approx(lost.end_ms + DETECTION_MS)
        events.append(event)
    return events


LOSSES = {
    "crash": ("bump", ScriptedCrashes({1: 4}), "crash"),
    "service-fault": ("flaky", None, "service-fault"),
}


@pytest.mark.parametrize("case", sorted(LOSSES))
def test_lost_attempt_direct(case):
    func_name, policy, label = LOSSES[case]
    tracer = Tracer()
    runtime = direct_runtime(func_name, policy, tracer=tracer)
    result = runtime.invoke(func_name)
    assert result.attempts == 2
    assert result.cost_by_kind["failure_detection"] == DETECTION_MS
    (event,) = assert_losses_stamped_at_their_instant(tracer, label)
    lost = runtime.backend.counters.get("attempts_lost_to_service_faults")
    if case == "crash":
        assert not lost
    else:
        assert lost == 1
        assert event.args == {"retryable": True}


@pytest.mark.parametrize("case", sorted(LOSSES))
def test_lost_attempt_des(case):
    func_name, policy, label = LOSSES[case]
    tracer = Tracer()
    platform = des_platform(func_name, policy, tracer=tracer)
    result = platform.run(2.0, 2_000.0)
    assert result.completed > 1
    events = assert_losses_stamped_at_their_instant(tracer, label)
    assert len(events) == result.completed
    assert (result.crashed_attempts, result.faulted_attempts) == (
        (len(events), 0) if case == "crash" else (0, len(events))
    )
    # The DES keeps its own counters; direct mode's is not bumped.
    assert "attempts_lost_to_service_faults" not in result.counters


# ----------------------------------------------------------------------
# Tooling guard: a second copy of the loop cannot reappear unnoticed.
# ----------------------------------------------------------------------


def _calls_in_package():
    """``(file, enclosing function, call node)`` for every call
    expression under ``src/repro``."""
    package_dir = pathlib.Path(repro.__file__).parent
    found = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            found.append((path, scope, node))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(package_dir.rglob("*.py")):
        visit(ast.parse(path.read_text()),
              path.relative_to(package_dir).as_posix(), "")
    return found


def test_one_attempt_loop_in_the_package():
    """Architectural invariant: attempt state (``InstanceServices`` +
    ``Env``) is built in one function, and one place asks the crash
    policy for a hook — so every plane shares ``run_instance``."""
    constructors = {"InstanceServices": [], "Env": [], "Context": []}
    hook_sites = []
    for path, scope, call in _calls_in_package():
        func = call.func
        if isinstance(func, ast.Name) and func.id in constructors:
            constructors[func.id].append((path, scope))
        elif (isinstance(func, ast.Attribute)
              and isinstance(func.value, ast.Name)
              and func.value.id in constructors):
            # Context.open(...) / Session.open(...) style factories.
            constructors[func.value.id].append((path, scope))
        if (isinstance(func, ast.Attribute) and func.attr == "hook_for"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "crash_policy"):
            hook_sites.append((path, scope))

    the_constructor = ("runtime/local.py", "Context.open")
    assert constructors["InstanceServices"] == [the_constructor]
    assert constructors["Env"] == [the_constructor]
    assert hook_sites == [("runtime/local.py", "LocalRuntime.run_instance")]
    # The DES driver builds no attempt state of its own.
    assert not [
        site for sites in constructors.values() for site in sites
        if site[0] == "harness/platform.py"
    ]
