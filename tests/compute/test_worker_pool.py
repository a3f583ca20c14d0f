"""Process ownership on the live plane (``repro.compute.pool``).

One template process boots the interpreter once and forks every
worker, initial or replacement.  What must survive that: nothing is
left behind and everything a worker burned is in the caller's
``RUSAGE_CHILDREN`` when ``run()`` returns; a worker that is still
starting never holds up shutdown; a template that cannot boot (or
dies) ends the run at once with a typed reason; and two workers forked
from one image are still two independent workers.
"""

import ast
import asyncio
import json
import multiprocessing
import os
import pathlib
import resource
import signal
import subprocess
import sys
import time
import types
from multiprocessing import resource_tracker

import pytest

import repro
from repro import SystemConfig
from repro.compute import WorkloadSpec, build_compute_plane, gateway
from repro.compute.dispatch import Dispatcher
from repro.compute.gateway import LocalhostComputePlane
from repro.compute.pool import WorkerPool
from repro.harness import CounterWorkload
from repro.harness.audit import GroundTruth, storage_anomalies
from repro.harness.live_exp import per_worker_notes, run_live_point
from repro.simulation.rng import derive_seed

live = pytest.mark.skipif(
    sys.platform != "linux", reason="relies on fork, /proc and AF_UNIX"
)

COMPUTE_DIR = pathlib.Path(repro.__file__).parent / "compute"


def _plane(requests, workers=2, compute_ms=0.0, read_ratio=0.5,
           module="repro.harness.failover", seed=1106, **plane_kwargs):
    kwargs = dict(num_keys=requests + 16, read_ratio=read_ratio,
                  compute_ms=compute_ms)
    return build_compute_plane(
        "localhost", CounterWorkload(**kwargs), "boki",
        config=SystemConfig(seed=seed).with_storage_plane(
            log_shards=2, kv_partitions=2),
        workload_spec=WorkloadSpec(module, "CounterWorkload", kwargs),
        num_workers=workers, requests=requests, **plane_kwargs,
    )


def _stat(pid):
    """``/proc/<pid>/stat`` after ``pid (comm)``: state, ppid, ...
    (comm may hold spaces and parens)."""
    with open(f"/proc/{pid}/stat", encoding="utf-8", errors="replace") as f:
        stat = f.read()
    return stat[stat.rindex(")") + 2:].split()


def _parent_of(pid):
    return int(_stat(pid)[1])


def _running(pid):
    try:
        return _stat(pid)[0] != "Z"
    except OSError:
        return False


def _descendants():
    """Every process whose parent chain reaches this one, bar
    ``multiprocessing``'s resource tracker (it lives until exit)."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                parents[int(entry)] = _parent_of(entry)
            except OSError:  # ended while we were looking
                pass
    found, frontier = set(), {os.getpid()}
    while frontier:
        frontier = {pid for pid, parent in parents.items()
                    if parent in frontier} - found
        found |= frontier
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    return found - {tracker}


def _children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


# -- (1) a clean run leaves nothing behind and loses no CPU ------------------


@live
def test_run_returns_with_every_process_reaped_and_accounted():
    plane = _plane(requests=40)
    parents = set()

    def sample(request, latency_ms):
        # While the run is live: every known worker is the template's.
        parents.update(_parent_of(worker.pid)
                       for worker in plane._pool.workers.values()
                       if worker.pid)

    plane.on_request_complete = sample
    cpu0 = _children_cpu_s()
    try:
        result = plane.run(0.0, 0.0)
        # Before close(): run() itself joined the template, which had
        # reaped its workers first.
        assert _descendants() == set()
        assert multiprocessing.active_children() == []
        pool = plane._pool
        assert pool.exitcode == 0
        assert _children_cpu_s() - cpu0 > 0.0
    finally:
        plane.close()
    assert result.completed == 40 and result.extras["aborted"] is None
    assert parents == {pool.pid}
    # Both workers exited on the template's SIGTERM, through SystemExit.
    assert sorted(pool.workers) == [0, 1]
    assert [w.exitcode for w in pool.workers.values()] == [0, 0]
    assert len({w.pid for w in pool.workers.values()} | {pool.pid}) == 3
    for row in result.extras["per_worker"]:
        assert row["ready_ms"] > 0.0 and row["replaced_by"] is None


# -- (2) replacements come from the same template ----------------------------


@pytest.fixture
def planes(monkeypatch):
    """Every plane a ``run_live_point`` closes."""
    closed = []
    close = LocalhostComputePlane.close
    monkeypatch.setattr(
        LocalhostComputePlane, "close",
        lambda plane: (closed.append(plane), close(plane))[1],
    )
    return closed


@live
def test_every_replacement_is_forked_from_the_one_template(planes):
    # The CI live-smoke shape, one system.
    point = run_live_point("boki", workers=2, kills=2, requests=200, seed=7)
    assert point.result.completed == 200 and point.kills_delivered == 2
    assert (point.violations, point.consistency_anomalies) == (0, [])
    assert point.workers_spawned == 2 + 2
    (plane,) = planes
    spawns = [e for e in plane.flightrec.events() if e["kind"] == "spawn"]
    assert [e["worker"] for e in spawns] == [0, 1, 2, 3]
    assert {e["template"] for e in spawns} == {plane._pool.pid}
    rows = {row["worker"]: row for row in point.result.extras["per_worker"]}
    killed = [row for row in rows.values() if row["killed"]]
    assert sorted(row["replaced_by"] for row in killed) == [2, 3]
    # A replacement is a fork, not a boot: ready in milliseconds where
    # the first workers waited for the template's imports.
    replacements = [rows[2]["ready_ms"], rows[3]["ready_ms"]]
    assert any(ms is not None and ms < rows[0]["ready_ms"]
               for ms in replacements)
    assert _descendants() == set()


def test_per_worker_notes_show_both_halves_of_a_recovery():
    result = types.SimpleNamespace(extras={"per_worker": [
        {"worker": 0, "invocations": 7, "killed": True,
         "detection_ms": 402.3, "ready_ms": 390.0, "replaced_by": 2},
        {"worker": 1, "invocations": 9, "killed": False, "ready_ms": 391.0},
        {"worker": 2, "invocations": 3, "killed": True,
         "detection_ms": None, "ready_ms": 11.32, "replaced_by": 3},
        {"worker": 3, "invocations": 0, "killed": False, "ready_ms": None},
    ]})
    assert per_worker_notes("boki", result) == [
        "boki worker#0: inv=7, killed, detected in 402.3ms, "
        "replacement ready in 11.3ms",
        # Killed at the very end: never detected, replacement not READY.
        "boki worker#2: inv=3, killed, detected in never",
    ]


# -- (3) two forked workers are two independent workers ----------------------


def _attempts_by_worker(monkeypatch, **plane_kwargs):
    """Run 200 bumps at ``crash_f=0.2`` over two workers; return each
    worker's attempts-per-invocation sequence in completion order, and
    the audited plane.  Every request has the same op structure, so a
    worker's sequence is a function of its ``live-crashes`` stream."""
    served = {0: [], 1: []}
    done = Dispatcher.handle_done

    def spy_done(dispatcher, slot, instance_id, ok, payload):
        if ok:
            served[slot.worker_id].append(payload[1])
        done(dispatcher, slot, instance_id, ok, payload)

    monkeypatch.setattr(Dispatcher, "handle_done", spy_done)
    plane = _plane(requests=200, read_ratio=0.0, crash_f=0.2,
                   **plane_kwargs)
    truth = GroundTruth(plane.workload.keys)
    plane.on_request_complete = truth.on_request_complete
    try:
        result = plane.run(0.0, 0.0)
        audit = (result.completed, truth.bumps,
                 truth.violations(plane.runtime),
                 storage_anomalies(plane.backend.plane))
    finally:
        plane.close()
    assert audit == (200, 200, 0, [])
    assert result.crashed_attempts == sum(
        attempts - 1 for worker in served.values() for attempts in worker
    ) > 0
    return served[0], served[1]


@live
def test_forked_workers_draw_from_their_own_crash_streams(monkeypatch):
    first, second = _attempts_by_worker(monkeypatch)
    shared = min(len(first), len(second))
    assert shared >= 40 and first[:shared] != second[:shared]
    # Literally what the parent commit's spawn-ed workers drew at this
    # seed: a fork changes how a worker starts, not its streams.
    assert [i for i, n in enumerate(first[:40]) if n > 1] == [16, 23]
    assert [i for i, n in enumerate(second[:40]) if n > 1] == [14, 31, 32]


@live
def test_crash_stream_check_has_power(monkeypatch):
    # Hand both workers one seed: the sequences must now coincide, or
    # the test above could not tell two streams from one.
    monkeypatch.setattr(gateway, "derive_seed", lambda seed, label: 7)
    first, second = _attempts_by_worker(monkeypatch)
    shared = min(len(first), len(second))
    assert shared >= 40 and first[:shared] == second[:shared]


@live
def test_fork_requests_carry_per_worker_seeds(monkeypatch):
    forked = {}
    fork = WorkerPool.fork

    def spy_fork(pool, worker_id, args):
        forked[worker_id] = args
        return fork(pool, worker_id, args)

    monkeypatch.setattr(WorkerPool, "fork", spy_fork)
    plane = _plane(requests=4)
    try:
        assert plane.run(0.0, 0.0).completed == 4
    finally:
        plane.close()
    # worker_main's arguments, unchanged: socket, id, seeded config, ...
    assert sorted(forked) == [0, 1]
    for worker_id, args in forked.items():
        assert args[0].endswith("gateway.sock") and args[1] == worker_id
        assert args[2].seed == derive_seed(
            plane.config.seed, f"live-worker-{worker_id}")
    assert forked[0][2].seed != forked[1][2].seed


# -- (4) the template never starts a thread ----------------------------------

_THREADS_SCRIPT = """
import json, os, sys, threading, time
from repro import SystemConfig
from repro.compute import WorkloadSpec, build_compute_plane
from repro.harness import CounterWorkload

kwargs = dict(num_keys=32, read_ratio=0.5, compute_ms=0.0)
plane = build_compute_plane(
    "localhost", CounterWorkload(**kwargs), "boki",
    config=SystemConfig(seed=5),
    workload_spec=WorkloadSpec("repro.harness.failover", "CounterWorkload",
                               kwargs),
    num_workers=2, requests=6,
)
threads, peak = [], [0]

def poll():
    # From the template's start to the first completion: its imports
    # run in this window, and a thread they start lives until a fork.
    while not threads:
        pool = plane._pool
        if pool is not None:
            try:
                tasks = os.listdir(f"/proc/{pool.pid}/task")
            except OSError:  # exited: the run is over
                break
            peak[0] = max(peak[0], len(tasks))
        time.sleep(0.001)

poller = threading.Thread(target=poll, daemon=True)
poller.start()
plane.on_request_complete = lambda request, latency: threads.append(
    len(os.listdir(f"/proc/{plane._pool.pid}/task")))
try:
    result = plane.run(0.0, 0.0)
finally:
    plane.close()
poller.join(5.0)
print(json.dumps({"completed": result.completed, "threads": threads,
                  "peak": peak[0], "aborted": result.extras["aborted"],
                  "exitcode": plane._pool.exitcode}))
"""

#: Thread-count settings a caller may export; the tests below start
#: their gateway without them, so the template's own settings show.
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _caller_env(**extra):
    env = {name: value for name, value in os.environ.items()
           if name not in _BLAS_ENV + ("PYTHONPATH",)}
    env.update(extra)
    return env


@live
def test_template_is_single_threaded():
    # On 3.12+ forking a multi-threaded process is a DeprecationWarning;
    # spawn hands -W to the template, so there it would kill the run.
    src = str(pathlib.Path(repro.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", "-c",
         _THREADS_SCRIPT],
        env=_caller_env(PYTHONPATH=src), capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    # "peak" is sampled from the template's start: numpy's import would
    # start OpenBLAS's pool there, which the first fork shuts down.
    assert report == {"completed": 6, "threads": [1] * 6, "peak": 1,
                      "aborted": None, "exitcode": 0}


_ENVIRON_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from repro import SystemConfig
from repro.compute import WorkloadSpec, build_compute_plane
from repro.harness import CounterWorkload

if __name__ == "__main__":
    kwargs = dict(num_keys=32, read_ratio=0.5, compute_ms=0.0)
    plane = build_compute_plane(
        "localhost", CounterWorkload(**kwargs), "boki",
        config=SystemConfig(seed=5),
        workload_spec=WorkloadSpec("repro.harness.failover",
                                   "CounterWorkload", kwargs),
        num_workers=2, requests=6,
    )
    seen = []

    def read_template_environ(request, latency_ms):
        if not seen:
            with open(f"/proc/{plane._pool.pid}/environ", "rb") as f:
                seen.extend(f.read().decode().split("\\0"))

    plane.on_request_complete = read_template_environ
    before = dict(os.environ)
    try:
        result = plane.run(0.0, 0.0)
    finally:
        plane.close()
    print(json.dumps({"completed": result.completed,
                      "unchanged": dict(os.environ) == before,
                      "template": [e for e in seen if e]}))
"""


@live
def test_the_gateway_leaves_its_callers_environment_alone():
    """The template's environment is set for its start only: the
    gateway's own ``os.environ`` is the same after ``close()``."""
    src = str(pathlib.Path(repro.__file__).parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", _ENVIRON_SCRIPT, src], env=_caller_env(),
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["completed"] == 6 and report["unchanged"]
    template = dict(entry.split("=", 1) for entry in report["template"])
    assert template["OPENBLAS_NUM_THREADS"] == "1"
    assert template["OMP_NUM_THREADS"] == "1"
    assert template["PYTHONPATH"].split(os.pathsep)[0] == src


# -- shutdown never waits for a worker that is still starting ----------------


@live
def test_one_request_over_four_workers_does_not_stall_shutdown():
    plane = _plane(requests=1, workers=4)
    started = time.monotonic()
    try:
        result = plane.run(0.0, 0.0)
    finally:
        plane.close()
    assert time.monotonic() - started < 3.0
    assert result.completed == 1 and result.extras["aborted"] is None
    assert _descendants() == set()


@live
def test_a_replacement_still_starting_does_not_stall_shutdown():
    # The schedule (100 ms) is over long before the kill is detected
    # (400 ms), so the run ends on the orphan's takeover, milliseconds
    # after its worker's replacement was requested.
    started = time.monotonic()
    point = run_live_point("boki", workers=2, kills=1, requests=30,
                           rate_per_s=300.0, lease_ms=400.0, seed=1106)
    assert time.monotonic() - started < 3.0
    assert point.result.completed == 30 and point.kills_delivered == 1
    assert point.workers_spawned == 3
    assert (point.violations, point.consistency_anomalies) == (0, [])
    assert _descendants() == set()


# -- a template that cannot boot, or dies, ends the run ----------------------


@live
def test_unimportable_workload_module_aborts_the_run_at_once(tmp_path):
    plane = _plane(requests=4, module="repro.harness.no_such_module",
                   flightrec_dir=str(tmp_path))
    started = time.monotonic()
    try:
        result = plane.run(0.0, 0.0)
    finally:
        plane.close()
    assert time.monotonic() - started < 5.0
    aborted = result.extras["aborted"]
    assert aborted.startswith("worker template failed: ModuleNotFoundError")
    assert "repro.harness.no_such_module" in aborted
    assert result.completed == 0
    (event,) = [e for e in plane.flightrec.events()
                if e["kind"] == "template-failed"]
    assert "no_such_module" in event["error"]
    assert list(tmp_path.glob("flightrec-gateway-template-failed-*.jsonl"))
    # One import error, not one per lease expiry: nothing was respawned.
    assert result.extras["workers_spawned"] == 2
    assert _descendants() == set()


@live
def test_a_template_that_dies_mid_run_aborts_instead_of_hanging():
    plane = _plane(requests=400, compute_ms=5.0)
    pids = []

    def kill_template(request, latency_ms):
        if not pids:
            pids.extend(w.pid for w in plane._pool.workers.values())
            os.kill(plane._pool.pid, signal.SIGKILL)

    plane.on_request_complete = kill_template
    started = time.monotonic()
    try:
        result = plane.run(0.0, 0.0)
    finally:
        plane.close()
    assert time.monotonic() - started < 5.0
    assert result.extras["aborted"] == (
        "worker template failed: template exited with code -9"
    )
    assert 0 < result.completed < 400
    # Its workers were orphaned, not reaped: the gateway's EOF ends them.
    assert len(pids) == 2 and all(pids)
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline and any(_running(p) for p in pids):
        time.sleep(0.02)
    assert not any(_running(pid) for pid in pids)


# -- close() reaps what it stops ---------------------------------------------


@live
def test_close_after_an_aborted_run_leaves_no_process():
    # 40 requests of 200 ms over two workers cannot finish in 1 s.
    plane = _plane(requests=40, compute_ms=200.0, deadline_s=1.0)
    cpu0 = _children_cpu_s()
    try:
        result = plane.run(0.0, 0.0)
    finally:
        plane.close()
    assert result.extras["aborted"].startswith("deadline")
    assert result.completed < 40
    assert _descendants() == set()
    assert multiprocessing.active_children() == []
    assert _children_cpu_s() - cpu0 > 0.0


@live
def test_close_stops_a_template_whose_run_never_finished():
    """The paths ``run()`` does not cover: close() alone stops, joins
    and accounts for a template (and the worker it forked)."""

    async def scenario(loop):
        pool = WorkerPool(loop, "repro.harness.failover",
                          lambda reason: None)
        # worker_main fails to connect and exits 1; the template lives.
        worker = pool.fork(0, ("/nonexistent/gateway.sock", 0, None,
                               "boki", None, 100.0))
        while worker.exitcode is None:
            await asyncio.sleep(0.01)
        return pool, worker

    loop = asyncio.new_event_loop()
    try:
        pool, worker = loop.run_until_complete(
            asyncio.wait_for(scenario(loop), 30.0))
        assert worker.pid and worker.exitcode == 1
        assert _descendants() == {pool.pid}
        pool.close()
        assert pool.exitcode == 0 and _descendants() == set()
    finally:
        loop.close()


# -- one way to start a worker -----------------------------------------------


def _calls(name):
    """Call sites of ``<anything>.name(...)`` / ``name(...)`` under
    ``src/repro/compute``, as ``file:line``."""
    found = []
    for path in sorted(COMPUTE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called = (func.attr if isinstance(func, ast.Attribute)
                          else getattr(func, "id", None))
                if called == name:
                    found.append(f"{path.name}:{node.lineno}")
    return found


def test_the_template_is_the_only_process_the_plane_starts():
    assert [site.split(":")[0] for site in _calls("get_context")] == [
        "pool.py"]
    assert [site.split(":")[0] for site in _calls("Process")] == ["pool.py"]
    os_forks = [
        path.name for path in COMPUTE_DIR.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "os.fork"
    ]
    assert os_forks == ["pool.py"]
    for path in COMPUTE_DIR.glob("*.py"):
        source = path.read_text()
        assert "forkserver" not in source, path.name
        assert 'get_context("fork")' not in source, path.name
        assert "start_method" not in source, path.name
