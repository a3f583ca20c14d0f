"""``run.py --compare A B``: did B regress against A?

A and B are each one run file (``out/<workload>-seed<N>-trace0.json``)
or a directory of run files — the two-sets acceptance check: ten seeds
into ``A/``, the same ten into ``B/``.  A workload with one run on a
side is judged on that run's timed reps; with several, each run's
reported value is one sample.  Per workload and end-to-end metric it
prints both centres, how much worse B is as a share of A (and the same
for the values as measured, before the rescale to reference speed),
the wider of the two spreads, the bound and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``REGRESSED`` — it is (the exit code is then non-zero);
* ``unresolved`` — either side's interquartile spread is wider than
  the bound *and* the two sample ranges overlap, so the data can
  neither show nor rule out a regression of that size.

The bound is ``BENCHMARK.json``'s, with two refinements it cannot
express.  A metric the run files mark ``exact`` (simulated latencies,
log records per request, the share of requests that passed their
checks) repeats bit for bit at a seed, so when both sides ran the same
seeds its bound is 0 and any worsening is a regression.  ``setup_s`` is
a fraction of a second, so it may also move by an absolute
:data:`ABS_FLOOR_S` before its relative bound applies.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

from measure import load_contract, median, quartiles

#: ``setup_s`` may worsen by this many seconds whatever its size.
ABS_FLOOR_S = {"setup_s": 0.05}


@dataclass
class Side:
    """One workload's runs on one side of the comparison."""

    seeds: List[int] = field(default_factory=list)
    #: Metrics every run marked as repeating bit for bit at its seed.
    exact: Set[str] = field(default_factory=set)
    centre: Dict[str, float] = field(default_factory=dict)
    raw_centre: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)


def load_set(path: str) -> Dict[str, Side]:
    """``{workload: Side}`` from a run file or a directory of them."""
    names = (sorted(glob.glob(os.path.join(path, "*-trace0.json")))
             if os.path.isdir(path) else [path])
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for name in names:
        with open(name, encoding="utf-8") as f:
            run = json.load(f)
        runs.setdefault(run["workload"], []).append(run)
    sides = {}
    for workload, group in runs.items():
        side = sides[workload] = Side(
            seeds=sorted(run["seed"] for run in group),
            exact=set.intersection(*(set(run["exact"]) for run in group)),
        )
        for metric in group[0]["values"]:
            values = [run["values"][metric] for run in group]
            raw = [run["raw_values"][metric] for run in group]
            if len(group) == 1:
                side.centre[metric] = values[0]
                side.raw_centre[metric] = raw[0]
                side.samples[metric] = group[0]["samples"][metric]
            else:
                side.centre[metric] = median(values)
                side.raw_centre[metric] = median(raw)
                side.samples[metric] = values
    return sides


def spread(samples: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(samples)
    return (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    worse = a - b if better == "higher" else b - a
    return worse / abs(a) if a else 0.0


def verdict(a: Side, b: Side, metric: str, better: str, bound: float
            ) -> Dict[str, Any]:
    mid_a, mid_b = a.centre[metric], b.centre[metric]
    worse = worse_by(mid_a, mid_b, better)
    row = {"a": mid_a, "b": mid_b, "worse": worse,
           "raw_worse": worse_by(a.raw_centre[metric],
                                 b.raw_centre[metric], better)}
    if metric in a.exact and metric in b.exact and a.seeds == b.seeds:
        # Seed-deterministic: nothing to resolve, any worsening is real.
        return dict(row, spread=0.0, bound=0.0,
                    status="REGRESSED" if worse > 0.0 else "ok")
    if mid_a and metric in ABS_FLOOR_S:
        bound = max(bound, ABS_FLOOR_S[metric] / abs(mid_a))
    runs_a, runs_b = a.samples[metric], b.samples[metric]
    overlap = min(runs_a) <= max(runs_b) and min(runs_b) <= max(runs_a)
    wide = max(spread(runs_a), spread(runs_b))
    if wide > bound and overlap:
        status = "unresolved"
    elif worse > bound:
        status = "REGRESSED"
    else:
        status = "ok"
    return dict(row, spread=wide, bound=bound, status=status)


def compare(path_a: str, path_b: str) -> int:
    contract = load_contract()
    a, b = load_set(path_a), load_set(path_b)
    shared = [w for w in a if w in b]
    if not shared:
        print("compare: the two sets share no workload")
        return 2
    print(f"{'workload':<13} {'metric':<20} {'A':>12} {'B':>12} "
          f"{'worse':>8} {'measured':>8} {'spread':>7} {'bound':>6}  "
          "verdict")
    breached = False
    for workload in shared:
        for spec in contract["end_to_end"]:
            row = verdict(a[workload], b[workload], spec["name"],
                          spec["better"], spec["bound"])
            breached = breached or row["status"] == "REGRESSED"
            print(f"{workload:<13} {spec['name']:<20} {row['a']:>12.6g} "
                  f"{row['b']:>12.6g} {row['worse']:>+8.2%} "
                  f"{row['raw_worse']:>+8.2%} {row['spread']:>7.2%} "
                  f"{row['bound']:>6.3f}  {row['status']}")
    return 1 if breached else 0
