"""Protocol routing and the pauseless switching mechanism (Section 4.7).

The **router** decides which protocol handles each read/write.  Outside a
switching window this is just the configured protocol.  During a window,
the first time an SSF touches an object it queries the *transition log*
with its initial cursorTS — if the governing record is an END the SSF uses
the record's target protocol, if it is a BEGIN the SSF must use the
transitional protocol (old-protocol peers may still be running, and mixing
log-free reads with log-free writes would violate Theorem 4.6).  The
choice is cached per invocation so every step replays consistently.

The **switch manager** drives the window: ``begin_switch`` appends a BEGIN
record and snapshots the SSFs that started before it; as those finish, the
window closes with an END record.  Nothing blocks — SSFs keep running
throughout, which is what "pauseless" means.

Closing the window also *seals* the external state so the target protocol
finds fresh data in its own versioning schema (Section 5.2 keeps both
schemas coexisting in one store):

* switching **to Halfmoon-read**: any object whose LATEST slot is fresher
  than its newest logged version gets that value installed as a new
  version with a write-log commit record;
* switching **to Halfmoon-write**: any object whose newest logged version
  is fresher than its LATEST slot gets the LATEST slot overwritten with
  that value and a version attribute above every outstanding tuple.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set

from ..config import ProtocolConfig
from ..errors import KeyMissingError, SwitchError
from ..protocols import (
    SWITCHABLE_PROTOCOLS,
    Protocol,
    build_protocol,
)
from ..sharedlog import LogRecord
from ..store.kv import GENESIS_VERSION
from .env import Env
from .registry import InvocationTracker
from .services import InstanceServices, ServiceBackend
from .tags import GLOBAL_SCOPE, object_tag, transition_tag

BEGIN = "BEGIN"
END = "END"


class ProtocolRouter:
    """Per-object protocol dispatch, switching-aware.

    Besides the global default (and the switching window), the router
    supports *static per-object assignments* (Section 4.6: "it is
    possible to use independent protocols per object", because the
    protocols differ only in read/write handling and share the SSF's
    cursorTS): a read-hot object can run Halfmoon-read while a write-hot
    neighbour runs Halfmoon-write within the same invocation.
    """

    def __init__(
        self,
        default_protocol: str,
        protocol_config: Optional[ProtocolConfig] = None,
        switch_manager: Optional["SwitchManager"] = None,
    ):
        self._config = (
            protocol_config if protocol_config is not None
            else ProtocolConfig()
        )
        self._protocols: Dict[str, Protocol] = {}
        self.default_name = default_protocol
        self.switch_manager = switch_manager
        self._object_overrides: Dict[str, str] = {}
        # Fail fast on unknown names.
        self.protocol(default_protocol)

    def protocol(self, name: str) -> Protocol:
        proto = self._protocols.get(name)
        if proto is None:
            proto = build_protocol(name, self._config)
            self._protocols[name] = proto
        return proto

    def control_protocol(self) -> Protocol:
        """Protocol used for init / invoke / sync — operations whose
        logging format is shared by every logged protocol."""
        return self.protocol(self.default_name)

    def assign_object(self, key: str, protocol_name: str) -> None:
        """Statically pin ``key`` to a protocol (Section 4.6).

        Must be configured before traffic touches the object: per-object
        assignments are not switchable at runtime (use the switch manager
        for that) and take precedence over the global default.
        """
        if protocol_name not in SWITCHABLE_PROTOCOLS:
            raise SwitchError(
                f"per-object assignment must be one of "
                f"{SWITCHABLE_PROTOCOLS}, got {protocol_name!r}"
            )
        self.protocol(protocol_name)
        self._object_overrides[key] = protocol_name

    def protocol_for(self, svc: InstanceServices, env: Env,
                     key: str) -> Protocol:
        """Resolve the protocol governing ``key`` for this invocation."""
        override = self._object_overrides.get(key)
        if override is not None:
            return self.protocol(override)
        if self.switch_manager is None:
            return self.protocol(self.default_name)
        cached = env.object_protocols.get(key)
        if cached is None:
            cached = self.switch_manager.resolve(svc, env)
            env.object_protocols[key] = cached
        return self.protocol(cached)


class SwitchManager:
    """Drives BEGIN/END transitions on the (global-scope) transition log."""

    def __init__(
        self,
        backend: ServiceBackend,
        tracker: InvocationTracker,
        initial_protocol: str,
        scope: str = GLOBAL_SCOPE,
    ):
        if initial_protocol not in SWITCHABLE_PROTOCOLS:
            raise SwitchError(
                f"initial protocol must be switchable, got "
                f"{initial_protocol!r}"
            )
        self.backend = backend
        self.tracker = tracker
        self.scope = scope
        self.initial_protocol = initial_protocol
        self.current_protocol = initial_protocol
        self.in_progress = False
        self.target: Optional[str] = None
        self._pending: Set[str] = set()
        self.begin_seqnum: Optional[int] = None
        self.end_seqnum: Optional[int] = None
        self.switch_history: List[Dict] = []
        #: Optional wall/simulation clock used to stamp switch durations.
        self.now_fn: Optional[Callable[[], float]] = None
        self._begin_time: Optional[float] = None
        tracker.add_finish_listener(self._on_invocation_finished)

    # ------------------------------------------------------------------
    # SSF-side resolution
    # ------------------------------------------------------------------

    def resolve(self, svc: InstanceServices, env: Env) -> str:
        """Which protocol an SSF with ``env.init_cursor_ts`` must use.

        Reads the transition log at the initial cursorTS; both are
        persistent, so a re-executed SSF resolves identically — the
        switching is fault-tolerant."""
        record = svc.log_read_prev(
            transition_tag(self.scope), env.init_cursor_ts
        )
        if record is None:
            return self.initial_protocol
        if record["state"] == END:
            return record["target"]
        return "transitional"

    # ------------------------------------------------------------------
    # Runtime-side transitions
    # ------------------------------------------------------------------

    def begin_switch(self, target: str) -> int:
        if target not in SWITCHABLE_PROTOCOLS:
            raise SwitchError(f"cannot switch to {target!r}")
        if self.in_progress:
            raise SwitchError("a switch is already in progress")
        if target == self.current_protocol:
            raise SwitchError(f"already running {target!r}")
        seqnum = self.backend.log.append(
            [transition_tag(self.scope)],
            {"op": "transition", "state": BEGIN, "target": target},
        )
        self.in_progress = True
        self.target = target
        self.begin_seqnum = seqnum
        self.end_seqnum = None
        self._begin_time = self.now_fn() if self.now_fn else None
        # "Scan the init log records to find all running SSFs that start
        # before the switching."
        self._pending = self.tracker.running_started_before(seqnum)
        self._maybe_complete()
        return seqnum

    def _on_invocation_finished(self, instance_id: str) -> None:
        if self.in_progress and instance_id in self._pending:
            self._pending.discard(instance_id)
            self._maybe_complete()

    def _maybe_complete(self) -> None:
        if not self.in_progress or self._pending:
            return
        target = self.target
        assert target is not None
        self._seal_for(target)
        self.end_seqnum = self.backend.log.append(
            [transition_tag(self.scope)],
            {"op": "transition", "state": END, "target": target},
        )
        end_time = self.now_fn() if self.now_fn else None
        self.switch_history.append(
            {
                "from": self.current_protocol,
                "to": target,
                "begin_seqnum": self.begin_seqnum,
                "end_seqnum": self.end_seqnum,
                "begin_time_ms": self._begin_time,
                "end_time_ms": end_time,
                "delay_ms": (
                    end_time - self._begin_time
                    if end_time is not None and self._begin_time is not None
                    else None
                ),
            }
        )
        self.current_protocol = target
        self.in_progress = False
        self.target = None

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Sealing
    # ------------------------------------------------------------------

    def _seal_for(self, target: str) -> None:
        kv = self.backend.kv
        log = self.backend.log
        mv = self.backend.mv
        for key in self._object_keys():
            newest = log.read_prev(object_tag(key), log.tail_seqnum)
            versioned_freshness = (
                newest.seqnum if newest is not None else -1
            )
            try:
                latest_value, latest_version = kv.get_with_version(key)
            except KeyMissingError:
                latest_version = None
                latest_value = None
            if latest_version is None:
                latest_freshness = -1
            elif latest_version == GENESIS_VERSION:
                latest_freshness = 0
            else:
                latest_freshness = int(latest_version[0])

            if target == "halfmoon-read":
                if latest_freshness > versioned_freshness:
                    version_number = f"seal.{log.next_seqnum}"
                    mv.write_version(
                        key, version_number, latest_value,
                        self.backend.value_bytes,
                    )
                    seal_tag = object_tag(key)
                    sealed_seqnum = log.append(
                        [seal_tag],
                        {
                            "op": "write",
                            "key": key,
                            "version": version_number,
                            "sealed": True,
                        },
                    )
                    placement = self.backend.log_placement(seal_tag)
                    self.backend.cache.insert(
                        sealed_seqnum,
                        placement[1] if placement is not None else 0,
                    )
            elif target == "halfmoon-write":
                if newest is not None and (
                    versioned_freshness > latest_freshness
                ):
                    value = mv.read_version(key, newest["version"])
                    kv.put(key, value, self.backend.value_bytes)
                    kv.set_version(key, (newest.seqnum, 0))

    def _object_keys(self) -> List[str]:
        from ..store.versioned import _SEPARATOR

        return [k for k in self.backend.kv.keys() if _SEPARATOR not in k]
