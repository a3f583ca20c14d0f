"""Direct mode is acyclic: a dropped runtime is freed by reference
counting at once, never left for the cyclic collector's next full pass.

Each case below builds and drives a runtime with the collector off,
drops it, and then asks ``gc.collect()`` under ``DEBUG_SAVEALL`` what
it found: the answer must be nothing.  The two back-references that
used to close a cycle around every runtime are held weakly now: the
``MetricsRegistry`` probes and collectors that ``ServiceBackend``
registers as its own bound methods, and the ``InvocationTracker``
finish listener that is the ``SwitchManager``'s bound method.

One cycle is deliberate and not covered: ``Tracer`` <-> ``Span``
(``Span.child`` calls its tracer).  Every case here runs untraced.
"""

import gc

import pytest

from repro import LocalRuntime, SystemConfig
from repro.consistency import ProtocolExplorer
from repro.harness.chaos import run_chaos_point


def _bump(ctx, key):
    ctx.write(key, ctx.read(key) + 1)
    return ctx.read(key)


def _chaos(protocol):
    def run():
        point = run_chaos_point(protocol, 0.05, crash_f=0.15, seed=5)
        assert point.violations == 0

    return run


def _drive(runtime):
    runtime.populate("k", 0)
    runtime.register("bump", _bump)
    for _ in range(5):
        runtime.invoke("bump", "k")
    assert runtime.backend.metrics.snapshot()["ops"]["counts"]


def _sharded_runtime():
    config = SystemConfig(seed=3).with_storage_plane(
        log_shards=2, kv_partitions=2, replication=3
    )
    _drive(LocalRuntime(config, protocol="halfmoon-read"))


def _switching_runtime():
    runtime = LocalRuntime(SystemConfig(seed=3), protocol="halfmoon-read",
                           enable_switching=True)
    _drive(runtime)
    straggler = runtime.open_session().init()
    runtime.begin_switch("halfmoon-write")
    straggler.finish()  # the finish listener completes the switch
    assert runtime.switch_manager.current_protocol == "halfmoon-write"


def _explorer():
    result = ProtocolExplorer(
        "halfmoon-read",
        programs=[[("r", "x"), ("w", "x")], [("w", "x")]],
        initial_values={"x": 0},
        seed=5,
    ).explore(with_crashes=True)
    assert result.ok and result.crash_variants_explored > 0


CASES = {
    "chaos-boki": _chaos("boki"),
    "chaos-halfmoon-read": _chaos("halfmoon-read"),
    "chaos-halfmoon-write": _chaos("halfmoon-write"),
    "runtime-2x2-r3": _sharded_runtime,
    "runtime-switching": _switching_runtime,
    "explorer": _explorer,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_dropped_runtime_leaves_no_cyclic_garbage(case):
    run = CASES[case]
    run()  # warm lazy imports and module-level caches
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        found = gc.collect()
        kinds = sorted({type(obj).__name__ for obj in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert (found, kinds) == (0, [])
