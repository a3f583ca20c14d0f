"""Live run exposition: the ``python -m repro top`` client.

A running gateway serves point-in-time run state on ``STATUS`` frames
(any connection may ask; observers never say HELLO, so they occupy no
worker slot).  Discovery works through the flight-recorder directory:
a gateway started with ``--flightrec-dir`` publishes
``live-gateway.json`` there naming its socket, and removes it on
shutdown — so ``repro top`` pointed at the directory finds whatever
run is live right now.

The client is deliberately dependency-free and synchronous: connect,
ask, render, sleep, repeat.  Each poll opens its own connection; a
gateway that goes away mid-poll ends the loop cleanly rather than
stack-tracing over the operator's terminal.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Callable, Dict, Optional

from . import rpc

#: Discovery file a gateway publishes in its flight-recorder directory.
DISCOVERY_FILENAME = "live-gateway.json"


def publish_gateway(directory: str, socket_path: str, protocol: str) -> str:
    """Write the discovery file for a gateway listening on
    ``socket_path``; returns its path (the gateway removes it on
    shutdown)."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, DISCOVERY_FILENAME)
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"socket": socket_path, "pid": os.getpid(),
                   "protocol": protocol}, f)
    return path


def resolve_gateway(target: str) -> str:
    """Turn a user-supplied target into a socket path.

    Accepts a socket path directly, a discovery-file path, or a
    directory containing one (the ``--flightrec-dir`` of the run).
    """
    if os.path.isdir(target):
        target = os.path.join(target, DISCOVERY_FILENAME)
    if target.endswith(".json"):
        try:
            with open(target, encoding="utf-8") as f:
                return str(json.load(f)["socket"])
        except (OSError, ValueError, KeyError) as exc:
            raise FileNotFoundError(
                f"no live gateway discovered at {target!r} "
                "(is a run active with --flightrec-dir?)"
            ) from exc
    return target


def query_status(socket_path: str,
                 timeout_s: float = 5.0) -> Dict[str, Any]:
    """One STATUS round trip over a fresh connection."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    try:
        sock.connect(socket_path)
        rpc.send_frame(sock, (rpc.STATUS,))
        frame = rpc.recv_frame(sock)
    finally:
        sock.close()
    if frame is None or frame[0] != rpc.STATUS:
        raise ConnectionError(
            f"gateway at {socket_path!r} did not answer STATUS"
        )
    return dict(frame[1])


def format_status(payload: Dict[str, Any]) -> str:
    """Render one STATUS payload as a compact terminal block."""
    lines = [
        "repro live — {protocol}  t={t:.1f}s".format(
            protocol=payload.get("protocol", "?"),
            t=payload.get("now_ms", 0.0) / 1000.0,
        ),
        (
            "  requests: {issued} issued, {completed} completed, "
            "{inflight} in flight, {failed} failed"
        ).format(
            issued=payload.get("issued", 0),
            completed=payload.get("completed", 0),
            inflight=payload.get("inflight", 0),
            failed=payload.get("failed", 0),
        ),
        (
            "  chaos: {kills} kills, {orphans} orphans, "
            "{recovered} recovered, {duplicates} duplicate completions"
        ).format(
            kills=payload.get("kills", 0),
            orphans=payload.get("orphans", 0),
            recovered=payload.get("recovered", 0),
            duplicates=payload.get("duplicates", 0),
        ),
        (
            "  latency: median {median:.1f} ms, p99 {p99:.1f} ms, "
            "rate {rate:.1f}/s"
        ).format(
            median=payload.get("median_ms", 0.0),
            p99=payload.get("p99_ms", 0.0),
            rate=payload.get("rate_per_s", 0.0),
        ),
        (
            "  telemetry: {batches} batches, "
            "{frame_errors} frame errors"
        ).format(
            batches=payload.get("telemetry_batches", 0),
            frame_errors=payload.get("rpc_frame_errors", 0),
        ),
        "  rpc: {ops:.2f} storage ops per completed request".format(
            ops=payload.get("rpc_ops_per_req", 0.0),
        ),
    ]
    workers = payload.get("workers", ())
    if workers:
        lines.append("  workers:")
        for w in workers:
            state = ("dead" if w.get("declared")
                     else "busy" if w.get("busy_with")
                     else "ready" if w.get("ready") else "starting")
            busy = w.get("busy_with") or "-"
            lines.append(
                f"    #{w.get('worker')}: {state:8s} "
                f"inv={w.get('invocations', 0):<4d} busy_with={busy} "
                f"last_op={w.get('last_acked_op') or '-'}"
            )
    aborted = payload.get("aborted")
    if aborted:
        lines.append(f"  aborted: {aborted}")
    return "\n".join(lines)


def top_loop(
    target: str,
    interval_s: float = 1.0,
    once: bool = False,
    out: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Poll the gateway until it goes away; returns an exit code.

    ``once`` takes a single snapshot (scriptable); otherwise polls on
    ``interval_s`` until the gateway shuts down (normal end of run) or
    the operator interrupts.
    """
    socket_path: Optional[str] = None
    polls = 0
    while True:
        try:
            socket_path = resolve_gateway(target)
            payload = query_status(socket_path)
        except FileNotFoundError as exc:
            if polls == 0:
                out(str(exc))
                return 1
            return 0  # run ended and cleaned up its discovery file
        except (ConnectionError, OSError):
            if polls == 0:
                out(f"cannot reach gateway via {target!r}")
                return 1
            return 0  # gateway shut down mid-watch: the run is over
        out(format_status(payload))
        polls += 1
        if once:
            return 0
        sleep(interval_s)
