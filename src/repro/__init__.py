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

from .config import (
    ClusterConfig,
    FailureConfig,
    FaultConfig,
    GCConfig,
    LatencyConfig,
    ProtocolConfig,
    RecoveryConfig,
    ResilienceConfig,
    StorageSizeConfig,
    SystemConfig,
)
from .errors import (
    ConditionalAppendError,
    ConfigError,
    ConsistencyViolation,
    CrashError,
    InvocationError,
    KeyMissingError,
    LogError,
    PermanentServiceError,
    ProtocolError,
    ReproError,
    RetriesExhaustedError,
    ServiceFaultError,
    ServiceTimeoutError,
    ServiceUnavailableError,
    SimulationError,
    StoreError,
    SwitchError,
    TransientServiceError,
    TrimmedError,
)
from .faults import (
    CircuitBreaker,
    FaultDecision,
    FaultInjector,
    RetryPolicy,
)
from .protocols import (
    BokiProtocol,
    HalfmoonReadProtocol,
    HalfmoonWriteProtocol,
    Protocol,
    TransitionalProtocol,
    UnsafeProtocol,
    build_protocol,
    protocol_names,
)
from .runtime import (
    BernoulliCrashes,
    ComputeOp,
    Context,
    CrashOnceAtEvery,
    InvocationResult,
    InvokeOp,
    LocalRuntime,
    NoCrashes,
    ReadOp,
    ScriptedCrashes,
    Session,
    SyncOp,
    TxnOp,
    WriteOp,
)
from .sharedlog import LogRecord, SharedLog
from .store import KVStore, MultiVersionStore

__version__ = "1.0.0"

__all__ = [
    "BernoulliCrashes",
    "BokiProtocol",
    "CircuitBreaker",
    "ClusterConfig",
    "ComputeOp",
    "ConditionalAppendError",
    "ConfigError",
    "ConsistencyViolation",
    "Context",
    "CrashError",
    "CrashOnceAtEvery",
    "FailureConfig",
    "FaultConfig",
    "FaultDecision",
    "FaultInjector",
    "GCConfig",
    "HalfmoonReadProtocol",
    "HalfmoonWriteProtocol",
    "InvocationError",
    "InvocationResult",
    "InvokeOp",
    "KVStore",
    "KeyMissingError",
    "LatencyConfig",
    "LocalRuntime",
    "LogError",
    "LogRecord",
    "MultiVersionStore",
    "NoCrashes",
    "Protocol",
    "ProtocolConfig",
    "RecoveryConfig",
    "PermanentServiceError",
    "ProtocolError",
    "ReadOp",
    "ReproError",
    "ResilienceConfig",
    "RetriesExhaustedError",
    "RetryPolicy",
    "ScriptedCrashes",
    "ServiceFaultError",
    "ServiceTimeoutError",
    "ServiceUnavailableError",
    "Session",
    "SharedLog",
    "SimulationError",
    "StorageSizeConfig",
    "StoreError",
    "SwitchError",
    "SyncOp",
    "SystemConfig",
    "TxnOp",
    "TransientServiceError",
    "TransitionalProtocol",
    "TrimmedError",
    "UnsafeProtocol",
    "WriteOp",
    "build_protocol",
    "protocol_names",
    "__version__",
]
