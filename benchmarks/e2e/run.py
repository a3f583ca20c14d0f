"""End-to-end benchmark runner: the repository's performance contract.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N]
                                  [--seconds S] [--trace 0|1]
    python3 benchmarks/e2e/run.py --compare A B

One command prints every metric by name with its unit, checks the
outputs, and writes JSON under ``benchmarks/e2e/out/``.  The last
stdout line of a ``--workload`` run is the contract's result object
(``correct`` / ``attempted`` / ``failed`` / ``metrics``); the exit code
is non-zero when any check failed.  Without ``--workload`` every
workload runs, each in a process of its own (peak memory is a
process-lifetime high-water mark, so workloads must not share one).
``BENCHMARK.json`` at the repo root names every workload and metric;
see ``README.md`` here for what each means, which layer should move
which number, and the noise protocol.

Spawn safety: the live plane's workers use the ``spawn`` context and
re-import ``__main__``, so this module does nothing at import time —
all work is behind the ``__main__`` guard and ``repro`` is imported
inside :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:  # sibling modules, also under pytest / spawn
    sys.path.insert(0, HERE)

#: Cell batches last ``--seconds / CELL_BATCH_DIVISOR`` (67 ms at 20 s).
CELL_BATCH_DIVISOR = 300.0


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Halfmoon reproduction: end-to-end benchmark"
    )
    parser.add_argument("--workload", default=None,
                        help="workload to run (default: each of them, "
                             "one process per workload)")
    parser.add_argument("--seed", type=int, default=91,
                        help="the only input that changes generated load")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer run (cells, CPU shares, spans)")
    parser.add_argument("--out-dir", default=None,
                        help="where run JSON lands (default: out/ here)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two run files or directories of runs")
    return parser.parse_args(argv)


def _timed_reps(name: str, fn: Any, sizes: Any, seed: int, count: int,
                spans: Any, first_index: int, profiler: Any = None
                ) -> List[Any]:
    from workloads import RepContext

    return [
        fn(sizes, seed,
           RepContext(name, first_index + i, spans, profiler=profiler))
        for i in range(count)
    ]


def _audit_reps(warm: Any, reps: List[Any]) -> List[str]:
    """Fold the per-rep notes and the determinism check (every rep at
    one seed must reproduce the discarded warm-up rep's exact
    statistics) into failure notes; a failing rep fails all its
    requests."""
    notes = []
    for index, rep in enumerate(reps):
        if rep.exact != warm.exact:
            rep.notes.append("exact statistics differ from the warm-up "
                             "rep at the same seed")
        if rep.notes:
            rep.failed = rep.attempted
            notes.extend(f"rep {index}: {note}" for note in rep.notes)
    return notes


def run_untraced(name: str, seed: int, seconds: float, sizes: Any
                 ) -> Dict[str, Any]:
    """End-to-end metrics: one discarded warm-up rep, then timed reps
    at the same seed until ``seconds`` of measuring are used."""
    from measure import (SpanLog, box_speed, import_seconds, median,
                         peak_rss_mb)
    from workloads import WORKLOADS, RepContext

    fn = WORKLOADS[name]
    spans = SpanLog(enabled=False)
    imports, imports_ref = import_seconds(sizes.import_samples)
    # The first rep in a process is always the outlier (cold caches,
    # lazy imports, CPU-burst credit): run it, keep only its statistics.
    warm = fn(sizes, seed, RepContext(name, -1, spans))
    reps: List[Any] = []
    start = time.perf_counter()
    last_s = 0.0
    while (len(reps) < sizes.min_reps
           or time.perf_counter() - start + last_s <= seconds):
        t0 = time.perf_counter()
        reps.append(fn(sizes, seed, RepContext(name, len(reps), spans,
                                               calibrate=True)))
        last_s = time.perf_counter() - t0
    notes = warm.notes + _audit_reps(warm, reps)
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    live = reps[0].real_processes
    import_s = median(imports)
    raw = {
        "setup_s": [import_s + r.setup_s for r in reps],
        "req_per_cpu_s": [r.completed / r.cpu_s for r in reps],
        "req_per_s": [r.req_per_s for r in reps],
        "p50_ms": [r.p50_ms for r in reps],
        "p99_ms": [r.p99_ms for r in reps],
        "log_appends_per_req": [r.log_appends / r.attempted for r in reps],
        "peak_rss_mb": [peak_rss_mb(include_children=live)],
        "ok_frac": [1.0 - failed / attempted],
    }
    # Host times are reported at reference speed (measure.box_speed),
    # each rep by the speed the box showed around its own timed
    # sections, on the clock the metric was read from: rates divide by
    # the speed, durations multiply by it.  Only the live plane's
    # latencies are host time; the other three workloads' are
    # simulated, and with the append and failure counts repeat bit for
    # bit at a seed.
    samples = dict(raw)
    samples["setup_s"] = [median(imports_ref) + r.setup_s * r.wall_speed
                          for r in reps]
    samples["req_per_cpu_s"] = [v / r.cpu_speed
                                for v, r in zip(raw["req_per_cpu_s"], reps)]
    samples["req_per_s"] = [v / r.wall_speed
                            for v, r in zip(raw["req_per_s"], reps)]
    exact = ["log_appends_per_req", "ok_frac"]
    for metric in ("p50_ms", "p99_ms"):
        if live:
            samples[metric] = [v * r.wall_speed
                               for v, r in zip(raw[metric], reps)]
        else:
            exact.append(metric)
    calib = [c for r in reps for c in r.calib]

    def centre(metric: str, vals: List[float]) -> float:
        """The median over the reps - except the live plane's p99.  A
        burst's p99 is its ten slowest requests, and on a shared box
        those are the ones a co-tenant preempted (three runnable
        processes, two cores): in a noisy hour most bursts of a run
        read 1.5-6x, and the median of the bursts followed them (set
        spread 34%) where the least-disturbed burst held (11%)."""
        if live and metric == "p99_ms":
            return min(vals)
        return median(vals)

    return {
        "values": {m: centre(m, vals) for m, vals in samples.items()},
        "raw_values": {m: centre(m, vals) for m, vals in raw.items()},
        "samples": samples,
        "exact": exact,
        "attempted": attempted,
        "failed": failed,
        "correct": not notes and failed == 0,
        "notes": notes,
        "reps": len(reps),
        "box_speed": {"cpu": box_speed([cpu for cpu, _ in calib]),
                      "wall": box_speed([wall for _, wall in calib])},
        "import_wall_s": imports,
        "import_ref_s": imports_ref,
        "calib_cpu_wall_s": calib,
    }


def run_traced(name: str, seed: int, seconds: float, sizes: Any,
               out_dir: str) -> Dict[str, Any]:
    """Per-layer metrics: plain reps (the untraced baseline, and the
    exact per-layer counts), profiled reps (CPU shares), every isolated
    cell, and for ``live_burst`` the paced telemetry phase.  Nothing
    measured here feeds an end-to-end metric."""
    import cProfile

    from cells import run_cells
    from measure import SHARE_BUCKETS, SpanLog, cpu_shares, median
    from workloads import (PER_WORKLOAD_LAYER, WORKLOADS, RepContext,
                           live_paced_phase)

    fn = WORKLOADS[name]
    spans = SpanLog(enabled=True)
    warm = fn(sizes, seed, RepContext(name, -1, spans))
    plain = _timed_reps(name, fn, sizes, seed, sizes.plain_reps, spans, 0)
    profiler = cProfile.Profile()
    profiled = _timed_reps(name, fn, sizes, seed, sizes.profiled_reps,
                           spans, len(plain), profiler=profiler)
    notes = warm.notes + _audit_reps(warm, plain + profiled)

    # A layer this workload never enters reads 0: that *is* its share.
    values = {metric: 0.0 for metric in PER_WORKLOAD_LAYER}
    for metric in plain[0].layer:
        values[metric] = median([rep.layer[metric] for rep in plain])
    shares = cpu_shares(profiler)
    values.update({f"cpu_share.{b}": shares[b] for b in SHARE_BUCKETS})
    values["trace.cpu_overhead_ratio"] = (
        median([r.cpu_s / r.completed for r in profiled])
        / median([r.cpu_s / r.completed for r in plain])
    )
    with spans.span("cells", workload=name):
        values.update(run_cells(sizes, seed, seconds / CELL_BATCH_DIVISOR,
                                spans))
    if name == "live_burst":
        with spans.span("paced", workload=name):
            paced, paced_notes = live_paced_phase(sizes, seed, spans)
        values.update(paced)
        notes.extend(f"paced: {note}" for note in paced_notes)

    spans.write(os.path.join(out_dir, f"trace-{name}.json"))
    reps = plain + profiled
    attempted = sum(r.attempted for r in reps)
    failed = attempted if notes else 0
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "correct": not notes,
        "notes": notes,
        "reps": len(reps),
        "spans": len(spans.spans),
    }


def _result_line(report: Dict[str, Any], units: Dict[str, str]) -> str:
    """The contract's result object, one line of JSON."""
    return json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in report["values"].items()
        },
    })


def _keep_temp_files_here() -> None:
    """The live gateway binds its unix socket under ``tempfile``'s
    directory; point that inside the benchmark's own ``out/`` so a run
    writes nowhere else — unless the socket path would then overflow
    AF_UNIX's 108 bytes (the gateway appends ~35 to this one)."""
    import tempfile

    from measure import OUT_DIR

    tmp = os.path.join(OUT_DIR, "tmp")
    if len(tmp) <= 70:
        os.makedirs(tmp, exist_ok=True)
        os.environ["TMPDIR"] = tmp
        tempfile.tempdir = tmp


def prepare() -> Tuple[str, float]:
    """Make ``repro`` importable and pin every DES to the pure kernel
    (pool children re-read the variable), so numbers never depend on
    whether ``_corec`` happens to be built.  Returns the kernel stamp
    and this process's import time."""
    from measure import SRC_DIR

    os.environ["REPRO_SIM_KERNEL"] = "pure"
    _keep_temp_files_here()
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    t0 = time.perf_counter()
    import repro.compute  # noqa: F401 - timed import
    import repro.harness  # noqa: F401
    from repro.simulation import select_kernel
    import_s = time.perf_counter() - t0
    return select_kernel("pure"), import_s


def run_each_in_its_own_process(names: List[str], args: argparse.Namespace
                                ) -> int:
    """The default mode: this command once per workload, in sequence —
    exactly the runs ``--workload W`` makes, so the all-workloads
    numbers equal the single-workload ones (``ru_maxrss`` and the
    first-in-process effects do not carry over).  Returns the worst
    exit code."""
    worst = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.out_dir:
            command += ["--out-dir", args.out_dir]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        from compare import compare

        return compare(*args.compare)

    from measure import (SRC_DIR, adopt_orphans, load_contract,
                         stop_every_child)

    contract = load_contract()
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"run.py: no package to measure under {SRC_DIR}",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is None:
        return run_each_in_its_own_process(names, args)
    name = args.workload
    if name not in names:
        print(f"run.py: unknown workload {name!r}; "
              f"choose from {', '.join(names)}", file=sys.stderr)
        return 2
    adopt_orphans()
    # Every path out - a failed check, an exception, a SIGTERM - ends in
    # the ``finally``: no process this run started may outlive it.
    on_term = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return _run_workload(name, args, contract)
    finally:
        signal.signal(signal.SIGTERM, on_term)
        for comm in stop_every_child():
            print(f"run.py: killed leftover process {comm!r}",
                  file=sys.stderr)


def _run_workload(name: str, args: argparse.Namespace,
                  contract: Dict[str, Any]) -> int:
    from measure import OUT_DIR

    sim_kernel, import_s = prepare()

    from workloads import FULL

    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[group]}
    out_dir = args.out_dir or OUT_DIR
    os.makedirs(out_dir, exist_ok=True)

    if args.trace:
        report = run_traced(name, args.seed, args.seconds, FULL, out_dir)
    else:
        report = run_untraced(name, args.seed, args.seconds, FULL)
    mismatch = set(units) ^ set(report["values"])
    if mismatch:
        raise RuntimeError(
            f"{name}: emitted metrics and BENCHMARK.json disagree on "
            f"{sorted(mismatch)}"
        )
    report.update(workload=name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, sim_kernel=sim_kernel,
                  import_s=import_s, nproc=os.cpu_count())
    path = os.path.join(
        out_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
    print(f"# {name}: seed {args.seed}, {report['reps']} timed reps, "
          f"sim_kernel {sim_kernel}, ops_attempted "
          f"{report['attempted']}, ops_failed {report['failed']}")
    raw = report.get("raw_values", {})
    for metric, value in report["values"].items():
        line = f"{name:<13} {metric:<52} {value:>16.6f} {units[metric]}"
        if raw.get(metric, value) != value:
            line += f"  (as measured: {raw[metric]:.6f})"
        print(line)
    for note in report["notes"]:
        print(f"# CHECK FAILED {name}: {note}")
    print(_result_line(report, units))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
