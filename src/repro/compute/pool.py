"""Process ownership for the live plane: one template, forked workers.

::

    runner (gateway) --spawn--> template --os.fork()--> worker k

Booting a worker is interpreter start-up plus importing numpy and the
runtime (≈ 0.4 CPU-s); the live plane used to pay that once per
worker and again for every takeover replacement.  It is now paid once
per plane: the gateway ``spawn``-s one single-threaded *template*
process (one BLAS thread: :data:`TEMPLATE_ENV`) that imports every
module a worker executes (this module's imports, :data:`PREFORK_IMAGE`
and the workload's module — a worker imports nothing), freezes its
heap, and then serves three verbs from the gateway over a pipe —

``("fork", worker_id, worker_main args)``
    ``os.fork()``; the child closes the pipe and runs ``worker_main``
    unchanged (own socket, own seed, own span block), the template
    answers ``("forked", worker_id, pid)``;
``("signal", worker_id, signum)``
    delivered by the template, the pid's parent: it only signals
    children it has not reaped, so a recycled pid can never be hit;
``("stop",)`` (also: EOF on the pipe, or SIGTERM)
    SIGTERM every child (workers turn it into ``SystemExit``), SIGKILL
    what is left after :data:`STOP_GRACE_S`, exit once all are reaped.

Every reaped child is reported as ``("exit", worker_id, exitcode)``.
:class:`WorkerPool` is the gateway's end: requests are written at once
and replies consumed as they arrive, so the event loop never waits for
the template.  Joining the template after it reaped its workers folds
their CPU time and peak RSS into the caller's ``RUSAGE_CHILDREN``,
exactly as joining each worker did.
"""

from __future__ import annotations

import gc
import importlib
import multiprocessing as mp
import os
import select
import signal
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from .worker import worker_main

#: What a worker runs that importing ``worker.py`` does not load:
#: numpy's generators (numpy imports that subpackage on first use, which
#: would be each worker's first ``default_rng``) and the one runtime
#: module ``runtime/local.py`` imports inside a function.
PREFORK_IMAGE = ("numpy.random", "repro.runtime.transactions")
#: What the template, and so every worker it forks, runs with.  Neither
#: calls a BLAS kernel (a worker's profile holds no linear algebra), but
#: importing numpy starts OpenBLAS's default pool of nproc - 1 threads,
#: which spin before they sleep until the template's first ``os.fork()``
#: shuts the pool down: ≈ 0.12 CPU-s per plane on two vCPUs.
TEMPLATE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
#: After ``stop``: how long SIGTERMed workers get before SIGKILL.
STOP_GRACE_S = 2.0
#: How long the gateway waits for a stopping template before killing it.
STOP_DEADLINE_S = 10.0


@dataclass
class WorkerProcess:
    """What the gateway knows of one forked worker (its slot's
    ``process``), filled in as the template reports."""

    pid: Optional[int] = None
    exitcode: Optional[int] = None


class WorkerPool:
    """Gateway end of the control channel; owns the template process."""

    def __init__(self, loop: Any, module: str,
                 on_lost: Callable[[str], None]):
        self._loop = loop
        self._on_lost = on_lost
        self.workers: Dict[int, WorkerProcess] = {}
        self._control, theirs = mp.Pipe()
        self._template = mp.get_context("spawn").Process(
            target=template_main, args=(theirs, module),
            daemon=True, name="repro-live-template",
        )
        with _template_environ():
            self._template.start()
        theirs.close()  # ours would keep the template's EOF from showing
        self._stopping = False
        self._failure: Optional[str] = None
        self._exited = loop.create_future()
        loop.add_reader(self._control.fileno(), self._on_readable)

    @property
    def pid(self) -> Optional[int]:
        return self._template.pid

    @property
    def exitcode(self) -> Optional[int]:
        return self._template.exitcode

    def fork(self, worker_id: int, args: Tuple[Any, ...]) -> WorkerProcess:
        worker = self.workers[worker_id] = WorkerProcess()
        self._send(("fork", worker_id, args))
        return worker

    def signal(self, worker_id: int, signum: int) -> None:
        self._send(("signal", worker_id, int(signum)))

    def _send(self, message: Tuple[Any, ...]) -> None:
        try:
            self._control.send(message)
        except OSError:
            pass  # the template is gone; _on_readable reports it

    def _on_readable(self) -> None:
        try:
            while self._control.poll():
                kind, *rest = self._control.recv()
                if kind == "forked":
                    self.workers[rest[0]].pid = rest[1]
                elif kind == "exit":
                    self.workers[rest[0]].exitcode = rest[1]
                elif kind == "failed":
                    self._failure = rest[0]
        except (EOFError, OSError):
            # The template holds the only other end: it is exiting.
            self._loop.remove_reader(self._control.fileno())
            self._join()
            if not self._stopping:
                self._on_lost(
                    self._failure
                    or f"template exited with code {self.exitcode}"
                )
            self._exited.set_result(None)

    async def stop(self) -> None:
        """``stop`` the template and join it.  Returns once it has
        reaped its workers and exited: no descendant is left and the
        workers' rusage is the caller's."""
        self._stopping = True
        self._send(("stop",))
        killer = self._loop.call_later(STOP_DEADLINE_S, self._template.kill)
        await self._exited
        killer.cancel()

    def close(self) -> None:
        """Synchronous end (no loop needed): SIGTERM is ``stop`` to the
        template."""
        self._stopping = True
        if self._template.is_alive():
            self._template.terminate()
        self._join()

    def _join(self) -> None:
        self._template.join(STOP_DEADLINE_S)
        if self._template.is_alive():
            self._template.kill()
            self._template.join()
        self._control.close()


def template_main(control: Any, module: str) -> None:
    """Entry point of the template (the one ``spawn`` target).  Never
    starts a thread: it forks, and its environment holds
    :data:`TEMPLATE_ENV`, so numpy's import starts no BLAS pool either.

    Unpickling this function imported this module, so ``worker.py``
    and what it imports; the rest of the image is named here, before
    the freeze — an import after ``os.fork()`` is paid once per worker
    and per takeover replacement, on pages the freeze does not cover.
    ``module`` is the workload's.
    """
    # The gateway owns the drain on Ctrl-C; workers inherit the ignore.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for name in PREFORK_IMAGE:
        importlib.import_module(name)
    try:
        importlib.import_module(module)
    except Exception as exc:
        control.send(("failed", f"{type(exc).__name__}: {exc}"))
        raise SystemExit(1) from exc
    gc.freeze()  # a worker's collector never scans (so never copies) this
    _Template(control).serve()


class _Template:
    """The template's loop: the control pipe and its own signals
    (through a wakeup pipe, so nothing runs in a handler)."""

    def __init__(self, control: Any):
        self.control = control
        self.children: Dict[int, int] = {}  # pid -> worker_id, unreaped
        self.stopping = False
        self.kill_at: Optional[float] = None  # stop's SIGKILL deadline
        self.wake_r, self.wake_w = os.pipe()
        os.set_blocking(self.wake_w, False)
        signal.set_wakeup_fd(self.wake_w, warn_on_full_buffer=False)
        for signum in (signal.SIGCHLD, signal.SIGTERM):
            signal.signal(signum, lambda signum, frame: None)

    def serve(self) -> None:
        while self.children or not self.stopping:
            sources = [self.wake_r]
            if not self.stopping:
                sources.append(self.control)
            timeout = (None if self.kill_at is None
                       else max(0.0, self.kill_at - time.monotonic()))
            ready = select.select(sources, [], [], timeout)[0]
            if not ready:  # the grace period after stop is over
                self._signal_all(signal.SIGKILL)
                self.kill_at = None
            if self.wake_r in ready:
                if signal.SIGTERM in os.read(self.wake_r, 256):
                    self._stop()
                self._reap()
            if self.control in ready:
                try:
                    verb, *rest = self.control.recv()
                except (EOFError, OSError):
                    verb = "stop"
                if verb == "fork":
                    self._fork(*rest)
                elif verb == "signal":
                    self._signal(*rest)
                else:
                    self._stop()

    def _reply(self, *message: Any) -> None:
        try:
            self.control.send(message)
        except OSError:
            pass  # the gateway is gone: its EOF already means stop

    def _fork(self, worker_id: int, args: Tuple[Any, ...]) -> None:
        sys.stdout.flush()
        sys.stderr.flush()
        # A SIGTERM between fork and the child's handler reset would run
        # the template's no-op handler in the child and be lost.
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
        pid = os.fork()
        if pid == 0:
            self._become_worker(args)
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
        self.children[pid] = worker_id
        self._reply("forked", worker_id, pid)

    def _become_worker(self, args: Tuple[Any, ...]) -> None:
        code = 1
        try:
            signal.set_wakeup_fd(-1)
            for signum in (signal.SIGCHLD, signal.SIGTERM):
                signal.signal(signum, signal.SIG_DFL)
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})
            self.control.close()
            # Keep stdio only.  Besides the control and wakeup pipes the
            # template holds multiprocessing's sentinel pipe; a worker
            # that kept it would hide the template's death from join().
            os.closerange(3, os.sysconf("SC_OPEN_MAX"))
            worker_main(*args)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else bool(exc.code)
        except BaseException:  # noqa: BLE001 - a worker's last words
            traceback.print_exc()
        finally:
            # Not sys.exit: the stack below is the template's.
            try:
                sys.stdout.flush()
                sys.stderr.flush()
            finally:
                os._exit(code)

    def _signal(self, worker_id: int, signum: int) -> None:
        for pid, owner in self.children.items():
            if owner == worker_id:
                os.kill(pid, signum)

    def _signal_all(self, signum: int) -> None:
        for pid in self.children:
            os.kill(pid, signum)

    def _stop(self) -> None:
        if not self.stopping:
            self.stopping = True
            self.kill_at = time.monotonic() + STOP_GRACE_S
            self._signal_all(signal.SIGTERM)

    def _reap(self) -> None:
        while self.children:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                return
            self._reply("exit", self.children.pop(pid),
                        os.waitstatus_to_exitcode(status))


@contextmanager
def _template_environ() -> Iterator[None]:
    """The environment ``spawn`` copies into the template: ``src`` on
    ``PYTHONPATH`` (it must ``import repro``) and :data:`TEMPLATE_ENV`.
    The caller's own values are back when the block exits: ``start()``
    has forked the template's interpreter, with its copy, by then."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # Defensive: some environments run with sys.path entries only.
    if src not in sys.path:
        sys.path.insert(0, src)
    child = dict(TEMPLATE_ENV)
    path = os.environ.get("PYTHONPATH", "")
    if src not in path.split(os.pathsep):
        child["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    saved = {name: os.environ.get(name) for name in child}
    os.environ.update(child)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
