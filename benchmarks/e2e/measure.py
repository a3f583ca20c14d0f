"""Measurement primitives shared by the runner, the workloads and the
cells: stopwatches, the runner's own spans, robust statistics, rusage
readers, and the cProfile → per-package CPU-share bucketing.

Nothing here imports ``repro``: the runner times the system from
outside, and worker processes that re-import ``__main__`` must not pay
for the package twice.
"""

from __future__ import annotations

import contextlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from typing import (Any, Callable, Dict, Iterator, List, Sequence,
                    Tuple)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds
    are written down; the runner reads them instead of repeating them."""
    with open(CONTRACT_PATH, encoding="utf-8") as f:
        return json.load(f)


# -- statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them
    (the acceptance check's definition); a single value is all three."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


# -- clocks --------------------------------------------------------------

#: Seconds one :func:`calibration_loop` takes at *reference speed* (this
#: repository's 2-core dev box in its usual state; the loop never
#: waits, so CPU and wall time agree there).  Host-time metrics are
#: reported at reference speed; see :func:`box_speed`.
CALIB_REFERENCE_S = 0.0150

_CALIB_KEYS = [f"k{i}" for i in range(1024)]


class _CalibCell:
    __slots__ = ("n", "x")

    def __init__(self) -> None:
        self.n = 0
        self.x = 0.0

    def bump(self, v: int) -> int:
        self.n += 1
        self.x += v * 1.0001
        return self.n


def calibration_loop() -> Tuple[float, float]:
    """``(CPU seconds, wall seconds)`` of a fixed interpreter-shaped
    loop: how fast this box runs *this kind of code* right now, on each
    of the two clocks the metrics are read from.

    Dict gets and sets, a slotted method call, float arithmetic, tuple
    allocation and a bounded list — the instruction mix of the system
    under test, none of its code.  A pure integer loop tracks co-tenant
    interference poorly (it slows ~1.5x where the workloads slow
    ~1.3x); this mix tracked the sharded-sim and chaos cells to ~4%
    over windows where their raw CPU time swung 40%.  FROZEN: editing
    the loop rescales every host-time metric, so every baseline must
    then be measured again.
    """
    keys = _CALIB_KEYS
    counts = dict.fromkeys(keys, 0)
    cell = _CalibCell()
    out: List[Any] = []
    append = out.append
    w0 = time.perf_counter()
    t0 = time.process_time()
    for i in range(60_000):
        key = keys[i & 1023]
        counts[key] = counts.get(key, 0) + cell.bump(i)
        if not i & 7:
            append((key, i))
        if len(out) > 512:
            del out[:]
    cpu_s = time.process_time() - t0
    return cpu_s, time.perf_counter() - w0


def box_speed(calib_samples: Sequence[float]) -> float:
    """The box's speed relative to the reference box (>1: faster) while
    ``calib_samples`` were taken, on the clock they were read from.

    A shared box moves between speed states up to 1.6x apart that last
    a few seconds each (co-tenants on the host), so as measured two
    25 s runs of one commit differ by more than any bound worth
    setting: spreads of 10-22% across ten runs.  The calibration loop
    and the workloads slow together, so every timed section of
    0.5-1.5 s is bracketed by samples and rescaled by the speed they
    show (``workloads.RepContext.body``); a sample is only good for the
    second or two around it, which is why a run-wide average left
    spreads of 6-14% where the brackets leave 2-7% (README, "Noise
    protocol").  A metric read from the CPU clock is rescaled by the
    CPU-clock samples and one read from the wall clock by the
    wall-clock samples, so steal and wait time count on both sides of
    the ratio or on neither.
    """
    return CALIB_REFERENCE_S * len(calib_samples) / sum(calib_samples)


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(include_children: bool) -> float:
    """Peak resident set of the runner, plus the largest reaped child
    when the workload runs worker processes (Linux reports KiB).  Both
    are high-water marks over the process's life, which is why the
    runner gives every workload a process of its own."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak_kb / 1024.0


class Stopwatch:
    """Accumulating wall + CPU timer (a rep may time several sections);
    an attached profiler is enabled for exactly the timed sections."""

    def __init__(self, profiler: Any = None):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self._profiler = profiler
        self._w0 = self._c0 = 0.0

    def __enter__(self) -> "Stopwatch":
        if self._profiler is not None:
            self._profiler.enable()
        self._w0 = time.perf_counter()
        self._c0 = time.process_time()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.cpu_s += time.process_time() - self._c0
        self.wall_s += time.perf_counter() - self._w0
        if self._profiler is not None:
            self._profiler.disable()


#: Seconds one :data:`_COLD_REFERENCE` start takes at reference speed.
COLD_REFERENCE_S = 0.175

#: A fresh interpreter importing numpy and a fixed slice of the standard
#: library: what a cold start costs on this box *right now*, with none
#: of the repository's code.  FROZEN, like :func:`calibration_loop`.
_COLD_REFERENCE = (
    "import numpy, json, decimal, argparse, asyncio, dataclasses, "
    "multiprocessing, statistics, socket, heapq, typing, random, bisect, "
    "logging, unittest, email, http.client, xml.dom.minidom, csv"
)

_IMPORT_REPRO = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import repro.harness, repro.compute"
)


def _fresh_interpreter_s(code: str) -> float:
    """Wall seconds for a new interpreter to run ``code``.  BLAS is
    held to one thread (numpy's import otherwise starts a pool, whose
    cost depends on where the scheduler puts it).  No timeout on
    purpose: ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms,
    which quantised these ~0.3 s samples into 50 ms steps."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC_DIR], check=True,
                   stdout=subprocess.DEVNULL, env=env)
    return time.perf_counter() - t0


def import_seconds(count: int) -> Tuple[List[float], List[float]]:
    """Wall seconds for a fresh interpreter to import what the runner
    imports — the part of set-up every run pays before its first
    request — ``count`` times: as measured, and at reference speed.

    Sampled in children so it can be repeated; the runner's own import
    happens once and first-in-process effects dominate it.  A cold
    start is bound by page faults and cache misses, not by the core, so
    it does not follow :func:`calibration_loop` (over 14 minutes,
    30-second medians ranged 47% as measured and still 31% rescaled by
    the loop); it does follow another cold start, so each sample is
    bracketed by two starts of :data:`_COLD_REFERENCE` and reported as
    its ratio to them times :data:`COLD_REFERENCE_S` (17%)."""
    measured, at_reference = [], []
    before = _fresh_interpreter_s(_COLD_REFERENCE)
    for _ in range(count):
        sample = _fresh_interpreter_s(_IMPORT_REPRO)
        after = _fresh_interpreter_s(_COLD_REFERENCE)
        measured.append(sample)
        at_reference.append(
            sample * COLD_REFERENCE_S / ((before + after) / 2.0))
        before = after
    return measured, at_reference


# -- process hygiene -------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own
    parent dies (Linux ``PR_SET_CHILD_SUBREAPER``), so a grandchild
    cannot escape :func:`stop_every_child` by being orphaned."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: best effort
        pass


def children_of(parent: int) -> Dict[int, str]:
    """``{pid: command name}`` of the live or zombie children of
    ``parent``, read from ``/proc``."""
    found = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8",
                      errors="replace") as f:
                stat = f.read()
        except OSError:  # ended while we were looking
            continue
        # "pid (comm) state ppid ..."; comm may hold spaces and parens.
        comm = stat[stat.index("(") + 1:stat.rindex(")")]
        if int(stat[stat.rindex(")") + 2:].split()[1]) == parent:
            found[int(entry)] = comm
    return found


def stop_every_child(deadline_s: float = 10.0) -> List[str]:
    """Stop every process this one started and wait until each has
    ended; called on every path out of a run.  Returns the command
    names of the ones that had to be killed.

    The one child a clean run still has is ``multiprocessing``'s
    resource tracker, which the live plane's ``spawn`` context starts:
    it ends only once its pipe closes at interpreter exit, so it would
    outlive the runner by a few milliseconds.  Killed first is anything
    else (it may hold the tracker's pipe open), then the tracker is
    asked to finish and waited for."""
    from multiprocessing import resource_tracker

    me = os.getpid()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    tracker_pid = getattr(tracker, "_pid", None)
    killed = []
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        children = children_of(me)
        if tracker_pid in children and len(children) == 1:
            stop = getattr(tracker, "_stop", None)
            if stop is not None:
                stop()  # closes the pipe and waits for the tracker
                continue
        if not children:
            break
        for pid, comm in children.items():
            try:
                os.kill(pid, 9)
            except ProcessLookupError:
                pass
            try:
                _, status = os.waitpid(pid, 0)
            except ChildProcessError:  # reaped by its owner meanwhile
                continue
            if os.WIFSIGNALED(status):  # not a zombie that had ended
                killed.append(comm)
    return killed


# -- the runner's own spans ------------------------------------------------

class SpanLog:
    """In-memory spans around the runner's calls into each layer.

    One span per call (construct, run, audit, close, each cell batch):
    name, start, end, the span that was open when it started, and free
    labels (workload, rep).  A disabled log records nothing.  Written
    out when the run ends.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **labels: Any) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
            **labels,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield
        finally:
            self._stack.pop()
            record["end_s"] = time.perf_counter() - self._t0

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans}, f, indent=1)


# -- CPU shares --------------------------------------------------------------

#: ``cpu_share.<bucket>`` ← source path fragment, first match wins.
_SHARE_RULES = (
    ("runtime.services", "/repro/runtime/services.py"),
    ("runtime.rest", "/repro/runtime/"),
    ("simulation", "/repro/simulation/"),
    ("harness", "/repro/harness/"),
    ("protocols", "/repro/protocols/"),
    ("sharedlog_store", "/repro/sharedlog/"),
    ("sharedlog_store", "/repro/store/"),
    ("storageplane", "/repro/storageplane/"),
    ("faults_recovery", "/repro/faults/"),
    ("faults_recovery", "/repro/recovery/"),
    ("observe", "/repro/observe/"),
    ("compute", "/repro/compute/"),
)
SHARE_BUCKETS = tuple(dict.fromkeys(b for b, _ in _SHARE_RULES)) + ("other",)


def _bucket_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    for bucket, fragment in _SHARE_RULES:
        if fragment in path:
            return bucket
    return "other"


def cpu_shares(profiler: Any) -> Dict[str, float]:
    """Percent of profiled self time per source package (sums to 100).

    Built-ins have no source file; their self time is charged to the
    package of whichever function called them (``pstats`` keeps the
    per-caller split), so 500k ``dict.get`` calls from the service
    layer read as service-layer time, not as an unattributable lump.
    """
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    totals = {bucket: 0.0 for bucket in SHARE_BUCKETS}
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in (
            stats.items()):
        if filename != "~" or not callers:
            totals[_bucket_of(filename)] += tt
            continue
        for (caller_file, _cl, _cn), (_n, _c, caller_tt, _t) in (
                callers.items()):
            totals[_bucket_of(caller_file)] += caller_tt
    whole = sum(totals.values())
    if whole <= 0.0:
        raise RuntimeError("profile recorded no self time")
    return {bucket: 100.0 * t / whole for bucket, t in totals.items()}


# -- isolated-cell timing ------------------------------------------------------

def per_op_seconds(
    batch: Callable[[int], float],
    target_s: float,
    batches: int,
    spans: SpanLog,
    name: str,
) -> float:
    """Median seconds per operation of ``batch(n)``, which runs ``n``
    operations and returns the CPU seconds *it* timed around them (so
    each cell keeps its own set-up out of the number).  ``n`` is sized
    once so a batch lasts about ``target_s``."""
    n = 32
    while True:
        spent = batch(n)
        if spent >= target_s / 4.0 or n >= 1 << 22:
            break
        n *= 4
    n = max(1, int(n * target_s / max(spent, 1e-9)))
    samples = []
    for index in range(batches):
        with spans.span(f"cell:{name}", batch=index, ops=n):
            samples.append(batch(n) / n)
    return median(samples)
