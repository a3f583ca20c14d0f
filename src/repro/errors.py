"""Exception hierarchy for the Halfmoon reproduction.

Every error raised by this library derives from :class:`ReproError`, so that
callers can catch library failures without catching unrelated bugs.  The
crash-injection machinery uses :class:`CrashError`, which deliberately does
*not* derive from :class:`ReproError`: a crash is a simulated fault, not an
API misuse, and protocol code must never swallow it by accident.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class DeadlockError(SimulationError):
    """The event queue drained while processes were still waiting."""


class LogError(ReproError):
    """Base class for shared-log failures."""


class ConditionalAppendError(LogError):
    """A ``logCondAppend`` lost the race: the expected offset was taken.

    Carries the sequence number of the record that already occupies the
    expected position, so the losing instance can recover the winner's
    state (Section 5.1 of the paper).
    """

    def __init__(self, message: str, existing_seqnum: int):
        super().__init__(message)
        self.existing_seqnum = existing_seqnum


class TrimmedError(LogError):
    """A read targeted a log position that has been garbage collected."""


class StoreError(ReproError):
    """Base class for external-state (key-value store) failures."""


class KeyMissingError(StoreError):
    """The requested key (or key version) does not exist."""


class ServiceFaultError(ReproError):
    """An infrastructure service (shared log or store) misbehaved.

    This is the *second* fault dimension, orthogonal to instance crashes
    (:class:`CrashError`): the function instance is healthy, but a
    substrate it depends on returned an error, timed out, or browned out.
    ``retryable`` tells the runtime whether re-executing the instance can
    help; the services-layer retry loop has already exhausted its
    per-operation budget by the time one of these escapes.
    """

    retryable = False

    def __init__(self, message: str, service: str = "", op: str = ""):
        super().__init__(message)
        self.service = service
        self.op = op


class TransientServiceError(ServiceFaultError):
    """A fault expected to clear on retry (error reply, dropped request)."""

    retryable = True


class ServiceTimeoutError(TransientServiceError):
    """An operation exceeded its per-attempt timeout or overall deadline."""


class ServiceUnavailableError(TransientServiceError):
    """The per-operation retry budget was exhausted without success.

    Still ``retryable`` at the *instance* level: the runtime abandons the
    attempt (charging fault-detection delay) and re-executes, exactly as
    it would after a crash — the exactly-once machinery makes the replay
    safe.
    """


class StorageUnavailableError(TransientServiceError):
    """A storage-plane component (sequencer, shard, partition) is down.

    The third fault dimension after instance crashes and injected
    substrate faults: the storage plane itself lost a component and is
    between crash and recovery.  Retryable — the operation is rejected
    *before* taking effect, so riding out the window with backoff (and
    eventually instance-level re-execution) is duplicate-free.
    """


class FencedEpochError(TransientServiceError):
    """An append carried a stale metalog epoch and was fenced.

    Raised by the sequencer *before* the append takes any effect: a
    leader failover bumped the metalog epoch, and requests stamped with
    the previous epoch are rejected outright.  Unlike the other
    transient faults this is **retryable after rediscovery**, not after
    blind backoff — the caller must refresh its cached leader epoch and
    resend, which the services layer does at a fixed rediscovery cost
    instead of walking the exponential backoff schedule.  Because the
    fenced request never applied, the re-stamped retry cannot duplicate
    the record.
    """

    def __init__(self, message: str, stale_epoch: int = 0,
                 current_epoch: int = 0, service: str = "log",
                 op: str = ""):
        super().__init__(message, service=service, op=op)
        self.stale_epoch = stale_epoch
        self.current_epoch = current_epoch


class QuorumLostError(StorageUnavailableError):
    """A replicated log shard has fewer live replicas than a write quorum.

    Appends require a majority ack (Section "Storage failure model" in
    docs/PROTOCOLS.md); reads keep failing over to any live replica, so
    only the write path degrades until re-replication restores quorum.
    """

    def __init__(self, message: str, shard: int = -1,
                 service: str = "log", op: str = ""):
        super().__init__(message, service=service, op=op)
        self.shard = shard


class PartitionUnavailableError(StorageUnavailableError):
    """A KV partition was lost and is being rebuilt from its redo journal.

    Operations routed to the partition are rejected before any effect
    during the rebuild window; the window is visible as a degraded mode
    in the breaker/metrics layer.
    """

    def __init__(self, message: str, partition: int = -1,
                 service: str = "store", op: str = ""):
        super().__init__(message, service=service, op=op)
        self.partition = partition


class PermanentServiceError(ServiceFaultError):
    """A fault that retries cannot fix (misconfiguration, data loss)."""


class UnknownOpError(PermanentServiceError):
    """A live worker named a storage op outside the gateway's op table.

    The table is closed at start-up over the public names of the log,
    store, multi-version and plane surfaces; anything else (a typo, a
    private ``_name``, a stale worker build) is refused, not looked up.
    """


class RuntimeStateError(ReproError):
    """The serverless runtime was driven through an invalid transition."""


class InvocationError(RuntimeStateError):
    """An SSF invocation could not be started or completed."""


class RetriesExhaustedError(InvocationError):
    """An invocation kept crashing past the configured retry budget."""


class ProtocolError(ReproError):
    """A logging protocol was used incorrectly or detected corruption."""


class SwitchError(ProtocolError):
    """Protocol switching was driven through an invalid transition."""


class ConsistencyViolation(ReproError):
    """A recorded history failed a consistency check."""


class CrashError(BaseException):
    """Injected crash of a running SSF instance.

    Derives from :class:`BaseException` so that ``except Exception`` blocks
    inside simulated functions cannot mask an injected fault, mirroring how
    a real process crash preempts application-level error handling.
    """

    def __init__(self, message: str = "injected crash"):
        super().__init__(message)
