"""Halfmoon: log-optimal fault-tolerant stateful serverless computing.

A full reproduction of the SOSP 2023 paper by Qi, Liu, and Jin: the two
asymmetric logging protocols (log-free reads / log-free writes), the
symmetric Boki-style baseline, exactly-once crash/retry semantics, garbage
collection, pauseless protocol switching, the protocol-choice advisor, and
a calibrated discrete-event simulation of the serverless platform the
paper evaluates on.

Quickstart::

    from repro import LocalRuntime

    runtime = LocalRuntime(protocol="halfmoon-read")
    runtime.populate("counter", 0)

    def bump(ctx, inp):
        value = ctx.read("counter")
        ctx.write("counter", value + inp)
        return value + inp

    runtime.register("bump", bump)
    result = runtime.invoke("bump", 5)
    assert result.output == 5
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".config": ("ProtocolConfig", "SystemConfig"),
    ".errors": ("RetriesExhaustedError",),
    ".runtime": (
        "BernoulliCrashes", "ComputeOp", "CrashOnceAtEvery", "InvokeOp",
        "LocalRuntime", "ReadOp", "ScriptedCrashes", "SyncOp", "TxnOp",
        "WriteOp",
    ),
})

__version__ = "1.0.0"

__all__ = [
    "BernoulliCrashes",
    "ComputeOp",
    "CrashOnceAtEvery",
    "InvokeOp",
    "LocalRuntime",
    "ProtocolConfig",
    "ReadOp",
    "RetriesExhaustedError",
    "ScriptedCrashes",
    "SyncOp",
    "SystemConfig",
    "TxnOp",
    "WriteOp",
    "__version__",
]
