"""Helpers importable by benchmark modules (pytest adds this directory to
``sys.path`` because the benchmarks are not a package)."""

from __future__ import annotations

import json
import os
import pathlib

FULL_SCALE = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "full"

#: Every benchmark artifact (rendered tables, raw-number JSON) lands here.
RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def scaled(default, full):
    """Pick a parameter based on the requested benchmark scale."""
    return full if FULL_SCALE else default


def write_results(name, txt=None, json_payload=None):
    """Write a benchmark's artifacts under ``benchmarks/results/``.

    The single writer behind every results file: ``txt`` becomes
    ``results/<name>.txt`` (newline-terminated), ``json_payload``
    becomes ``results/<name>.json`` (indent=2, sorted nothing — key
    order is the caller's).  Returns the paths written.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    written = []
    if txt is not None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(txt if txt.endswith("\n") else txt + "\n")
        written.append(path)
    if json_payload is not None:
        path = RESULTS_DIR / f"{name}.json"
        path.write_text(json.dumps(json_payload, indent=2) + "\n")
        written.append(path)
    return written


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
