"""Self-check of the benchmark itself (``pytest benchmarks/e2e -q``).

Tiny sizes, two reps: every workload and metric named in
``BENCHMARK.json`` is emitted and nothing unnamed is, exact metrics
repeat across two in-process runs, CPU shares sum to 100, the
``unsafe`` control violates (so the audit has power and a violation
fails the run), ``--compare`` reaches each verdict, the all-workloads
mode gives every workload its own process, and no process of any
kind outlives a live run.  Not part of tier-1 (``testpaths`` is
``tests``); timings are not asserted.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

import compare
import run
import workloads
from measure import SHARE_BUCKETS, children_of, load_contract

CONTRACT = load_contract()
WORKLOAD_NAMES = [w["name"] for w in CONTRACT["workloads"]]
E2E = {m["name"] for m in CONTRACT["end_to_end"]}
LAYER = {m["name"] for m in CONTRACT["per_layer"]}
IN_PROCESS = ("sim_sharded", "sim_apps", "direct_chaos")
EXACT = ("p50_ms", "p99_ms", "log_appends_per_req")


@pytest.fixture(scope="module", autouse=True)
def prepared():
    assert run.prepare()[0] == "pure"


@pytest.fixture(scope="module")
def untraced():
    return {
        name: run.run_untraced(name, 91, 0.0, workloads.TINY)
        for name in WORKLOAD_NAMES
    }


def test_contract_file_is_well_formed():
    name_ok = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_ok = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(CONTRACT) == {"command", "paths", "run_seconds",
                             "workloads", "end_to_end", "per_layer"}
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert 2 <= len(WORKLOAD_NAMES) <= 8
    assert 1 <= len(E2E) <= 16 and 1 <= len(LAYER) <= 128
    names = WORKLOAD_NAMES + [m["name"] for m in CONTRACT["end_to_end"]
                              + CONTRACT["per_layer"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(name_ok.match(n) for n in names)
    for spec in CONTRACT["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 <= spec["bound"] <= 0.25
    for spec in CONTRACT["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert unit_ok.match(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_untraced_emits_exactly_the_end_to_end_metrics(untraced, name):
    report = untraced[name]
    assert set(report["values"]) == E2E == set(report["raw_values"])
    assert report["correct"], report["notes"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    in_process = name in IN_PROCESS
    assert set(report["exact"]) == {
        "log_appends_per_req", "ok_frac",
        *(("p50_ms", "p99_ms") if in_process else ()),
    }
    # Only host times are rescaled to reference speed.
    assert all(report["values"][m] == report["raw_values"][m]
               for m in report["exact"] + ["peak_rss_mb"])
    assert report["reps"] >= workloads.TINY.min_reps
    # No end-to-end metric may read 0 (the contract's rule).
    assert all(value > 0 for value in report["values"].values())
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("name", IN_PROCESS)
def test_exact_metrics_repeat_across_runs(untraced, name):
    again = run.run_untraced(name, 91, 0.0, workloads.TINY)
    for metric in EXACT:
        assert again["values"][metric] == untraced[name]["values"][metric]
    other_seed = run.run_untraced(name, 92, 0.0, workloads.TINY)
    assert (other_seed["values"]["p50_ms"]
            != untraced[name]["values"]["p50_ms"]), "seed changes the load"


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_traced_emits_exactly_the_per_layer_metrics(tmp_path, name):
    report = run.run_traced(name, 91, 1.0, workloads.TINY, str(tmp_path))
    assert set(report["values"]) == LAYER
    assert report["correct"], report["notes"]
    shares = [report["values"][f"cpu_share.{b}"] for b in SHARE_BUCKETS]
    assert sum(shares) == pytest.approx(100.0, abs=0.5)
    assert report["values"]["trace.cpu_overhead_ratio"] > 0
    trace = json.loads((tmp_path / f"trace-{name}.json").read_text())
    spans = trace["spans"]
    assert {"id", "name", "parent", "start_s", "end_s"} <= set(spans[0])
    assert {s["name"] for s in spans} >= {"run", "audit", "cells"}
    assert all(s["end_s"] >= s["start_s"] for s in spans)
    # The logged protocols' logging cost is the paper's claim; pin it.
    values = report["values"]
    assert values["protocols.boki.log_appends_per_read"] == 1.0
    assert values["protocols.boki.log_appends_per_write"] == 2.0
    assert values["protocols.halfmoon-read.log_appends_per_read"] == 0.0
    assert values["protocols.halfmoon-write.log_appends_per_write"] == 0.0
    assert not multiprocessing.active_children()


def test_forced_violation_fails_the_run(monkeypatch, tmp_path, capsys):
    """Auditing the ``unsafe`` protocol must fail requests and the
    command: the correctness checks are live."""
    unsafe = dataclasses.replace(
        workloads.TINY, chaos_protocols=("unsafe",),
        chaos_requests=workloads.TINY.chaos_control_requests,
    )
    monkeypatch.setattr(workloads, "FULL", unsafe)
    code = run.main(["--workload", "direct_chaos", "--seconds", "0",
                     "--out-dir", str(tmp_path)])
    assert code == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_main_prints_the_contract_result_line(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    code = run.main(["--workload", "sim_sharded", "--seconds", "0",
                     "--seed", "7", "--out-dir", str(tmp_path)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == E2E
    assert all(set(m) == {"value", "unit"}
               for m in result["metrics"].values())
    assert os.path.exists(tmp_path / "sim_sharded-seed7-trace0.json")


def test_a_live_run_leaves_no_process_behind(monkeypatch, tmp_path, capsys):
    """Not even ``multiprocessing``'s resource tracker, which the spawn
    context starts and which otherwise outlives the runner by a few
    milliseconds (``active_children`` does not list it)."""
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    code = run.main(["--workload", "live_burst", "--seconds", "0",
                     "--out-dir", str(tmp_path)])
    assert code == 0
    assert children_of(os.getpid()) == {}
    assert "killed leftover" not in capsys.readouterr().err


def test_all_workloads_mode_gives_each_its_own_process(monkeypatch):
    """``ru_maxrss`` is a process-lifetime high-water mark: a workload
    sharing a process with an earlier one would report the larger of
    the two peaks, so the default mode must be exactly the
    single-workload runs, in sequence."""
    commands = []

    def fake_run(command, check):
        commands.append(command)
        return subprocess.CompletedProcess(command, int(len(commands) == 2))

    monkeypatch.setattr(run.subprocess, "run", fake_run)
    assert run.main(["--seed", "5", "--trace", "1"]) == 1  # the worst code
    assert [c[c.index("--workload") + 1] for c in commands] == WORKLOAD_NAMES
    for command in commands:
        assert command[:2] == [sys.executable, os.path.abspath(run.__file__)]
        assert command.count("--workload") == 1
        assert command[command.index("--seed") + 1] == "5"
        assert command[command.index("--trace") + 1] == "1"


def _run_file(path, seed, req_per_cpu_s, **exact_values):
    samples = {m: [1.0, 1.0, 1.0] for m in E2E}
    samples["req_per_cpu_s"] = req_per_cpu_s
    samples.update({m: [v] * 3 for m, v in exact_values.items()})
    values = {m: sum(v) / len(v) for m, v in samples.items()}
    path.write_text(json.dumps({
        "workload": "sim_sharded", "seed": seed, "samples": samples,
        "values": values, "raw_values": values,
        "exact": ["p50_ms", "p99_ms", "log_appends_per_req", "ok_frac"],
    }))
    return str(path)


def test_compare_reaches_each_verdict(tmp_path, capsys):
    base = _run_file(tmp_path / "a.json", 1, [100.0, 101.0, 99.0, 100.5])
    same = _run_file(tmp_path / "b.json", 1, [100.2, 99.5, 100.9, 100.0])
    slow = _run_file(tmp_path / "c.json", 1, [50.0, 50.5, 49.5, 50.2])
    noisy = _run_file(tmp_path / "d.json", 1, [40.0, 160.0, 70.0, 100.0])
    assert compare.compare(base, same) == 0
    assert "REGRESSED" not in capsys.readouterr().out
    assert compare.compare(base, slow) == 1
    assert "REGRESSED" in capsys.readouterr().out
    assert compare.compare(base, noisy) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_holds_exact_metrics_to_zero(tmp_path, capsys):
    """A modelled-latency or log-record change far inside the
    contract's bound is still a regression at the same seed; at another
    seed only the contract's bound can apply."""
    reps = [100.0, 101.0, 99.0, 100.5]
    base = _run_file(tmp_path / "a.json", 1, reps)
    more_log = _run_file(tmp_path / "b.json", 1, reps,
                         log_appends_per_req=1.03)
    less_log = _run_file(tmp_path / "c.json", 1, reps,
                         log_appends_per_req=0.97)
    other_seed = _run_file(tmp_path / "d.json", 2, reps,
                           log_appends_per_req=1.03)
    assert compare.compare(base, more_log) == 1
    assert compare.compare(base, less_log) == 0
    assert compare.compare(base, other_seed) == 0
    capsys.readouterr()


def test_compare_gives_setup_an_absolute_floor(tmp_path, capsys):
    reps = [100.0, 101.0, 99.0, 100.5]
    base = _run_file(tmp_path / "a.json", 1, reps, setup_s=0.10)
    within = _run_file(tmp_path / "b.json", 1, reps, setup_s=0.14)
    beyond = _run_file(tmp_path / "c.json", 1, reps, setup_s=0.16)
    assert compare.compare(base, within) == 0  # +40%, but only 0.04 s
    assert compare.compare(base, beyond) == 1
    capsys.readouterr()


def test_compare_directory_sets(tmp_path, capsys):
    """One run per side is judged on its reps, several on their
    reported values; the medians of two same-seed sets are bit-equal
    on the exact metrics."""
    for side, shift in (("A", 0.0), ("B", 0.5)):
        (tmp_path / side).mkdir()
        for seed in (1, 2, 3):
            _run_file(tmp_path / side / f"w-seed{seed}-trace0.json", seed,
                      [100.0 + seed + shift] * 3, p50_ms=40.0 + seed)
    assert compare.compare(str(tmp_path / "A"), str(tmp_path / "B")) == 0
    out = capsys.readouterr().out
    assert "REGRESSED" not in out and "unresolved" not in out
    sets = compare.load_set(str(tmp_path / "A"))
    assert sets["sim_sharded"].seeds == [1, 2, 3]
    assert sets["sim_sharded"].samples["req_per_cpu_s"] == [101.0, 102.0,
                                                            103.0]
