"""The shared exactly-once audit: verdict power, and the guards that
keep it the only one.

``harness/audit.py`` owns the ground truth, the probe pass and the
verdict for all four audited experiments.  These tests check that the
verdict fails on each thing it exists to catch (on synthetic points, so
every branch is reachable), that the shared helper did not cost the
audit its power (``unsafe`` must still be counted through it by every
simulated driver), and — in the repo's AST idiom — that no second copy
of the template can grow back unnoticed.
"""

import ast
from types import SimpleNamespace

import pytest

from repro.harness import (
    audit_failures,
    audit_verdict,
    run_chaos_point,
    run_failover_point,
    run_grid,
    run_storagechaos_point,
)
from repro.harness.audit import GroundTruth
from repro.harness.report import ExperimentTable
from tests.conftest import call_name, package_modules


def point(protocol, violations=0, **fields):
    return SimpleNamespace(protocol=protocol, violations=violations,
                           **fields)


def run_result(aborted=None):
    extras = {"aborted": aborted} if aborted else {}
    return SimpleNamespace(extras=extras)


class TestVerdict:
    def test_clean_points_pass(self):
        points = [point("boki"), point("halfmoon-read"),
                  point("unsafe", violations=3)]
        assert audit_failures(points) == []
        code, lines = audit_verdict(points)
        assert code == 0
        assert lines == ["exactly-once audit: PASS (3 cells; control "
                         "violated in 1 of 1 cells)"]

    def test_safe_violation_fails(self):
        failures = audit_failures([point("boki", violations=2)])
        assert failures == ["boki: 2 exactly-once violations"]

    def test_safe_violations_are_counted_across_cells(self):
        failures = audit_failures([
            point("boki"), point("boki", violations=2),
            point("boki", violations=1), point("halfmoon-write"),
        ])
        assert failures == [
            "boki: 3 exactly-once violations in 2 of 3 cells"
        ]

    @pytest.mark.parametrize("field", [
        "anomalies", "rebuild_diffs", "consistency_anomalies",
    ])
    def test_safe_anomaly_fails(self, field):
        failures = audit_failures(
            [point("halfmoon-read", **{field: ["stream gap at 7"]})]
        )
        assert failures == ["halfmoon-read: 1 consistency anomalies"]

    def test_control_may_violate_and_carry_anomalies(self):
        assert audit_failures(
            [point("unsafe", violations=9, anomalies=["x"])]
        ) == []

    def test_aborted_run_fails_for_any_system(self):
        for system in ("boki", "unsafe"):
            failures = audit_failures(
                [point(system, result=run_result("deadline exceeded"))]
            )
            assert failures == [
                f"{system}: run aborted (deadline exceeded)"
            ]

    def test_clean_control_with_kills_delivered_is_vacuous(self):
        failures = audit_failures([
            point("boki", kills_delivered=2),
            point("unsafe", kills_delivered=2),
        ])
        assert len(failures) == 1
        assert "unsafe control survived the kill schedule" in failures[0]

    def test_clean_control_without_kills_is_not_a_failure(self):
        # The simulated control legitimately reads 0 at small sizes
        # (`chaos --fault-rates 0.0 0.1 --requests 40 --seed 3`), and a
        # live run whose kills never landed proved nothing either way.
        assert audit_failures([point("boki"), point("unsafe")]) == []
        assert audit_failures(
            [point("boki", kills_delivered=0),
             point("unsafe", kills_delivered=0)]
        ) == []

    def test_failure_verdict_is_exit_one_and_tagged_lines(self):
        code, lines = audit_verdict(
            [point("boki", violations=1, anomalies=["x"]),
             point("unsafe", violations=1)]
        )
        assert code == 1
        assert lines == [
            "AUDIT FAILURE: boki: 1 exactly-once violations",
            "AUDIT FAILURE: boki: 1 consistency anomalies",
        ]

    def test_pass_line_reports_kills_per_cell(self):
        code, lines = audit_verdict([
            point("unsafe", violations=1, kills_delivered=2),
            point("boki", kills_delivered=1),
        ])
        assert code == 0
        assert lines == [
            "exactly-once audit: PASS (2 cells; control violated in 1 of "
            "1 cells; kills delivered in 2 of 2 cells (3 SIGKILLs))"
        ]


class TestGroundTruth:
    def test_counts_completed_bumps_only(self):
        truth = GroundTruth(["a", "b"])
        truth.on_request_complete(
            SimpleNamespace(func_name="bump", input="a"), 1.0)
        truth.on_request_complete(
            SimpleNamespace(func_name="peek", input="b"), 1.0)
        truth.count("a")
        assert truth.expected == {"a": 2, "b": 0}
        assert truth.bumps == 2

    def test_probe_pass_counts_short_and_long_keys(self):
        truth = GroundTruth(["lost", "doubled", "fine", "untouched"])
        for key in ("lost", "doubled", "fine"):
            truth.count(key)
        committed = {"lost": 0, "doubled": 2, "fine": 1, "untouched": 0}
        probed = []

        def invoke(func_name, key):
            probed.append((func_name, key))
            return SimpleNamespace(output=committed[key])

        assert truth.violations(SimpleNamespace(invoke=invoke)) == 2
        # Every key is probed, through the protocol, in key order.
        assert probed == [("probe", key) for key in committed]


#: Smallest sizes at which the unsafe control must violate under each
#: simulated driver (seeded, so "must" is a pinned fact, not a hope).
UNSAFE_MUST_VIOLATE = [
    (run_chaos_point,
     dict(fault_rate=0.1, seed=42, requests=60, num_keys=12)),
    # No compute step: the two node crashes catch a bump between its
    # write landing and its completion, which blind re-execution doubles.
    (run_failover_point,
     dict(lease_ms=200.0, crash_at_ms=500.0, crash_nodes=(0, 1),
          rate_per_s=500.0, duration_ms=1_500.0, compute_ms=0.0, seed=7)),
    (run_storagechaos_point,
     dict(component="metalog", rate_per_s=250.0, duration_ms=1_500.0,
          seed=11)),
]


@pytest.mark.parametrize(
    "driver, kwargs", UNSAFE_MUST_VIOLATE,
    ids=[driver.__name__ for driver, _ in UNSAFE_MUST_VIOLATE],
)
def test_shared_audit_counts_the_unsafe_control(monkeypatch, driver,
                                                kwargs):
    """The helper must not be where the audit loses power: each
    simulated driver's ``violations`` is what the shared probe pass
    counted, and for ``unsafe`` that count is positive."""
    counted = []
    probe_pass = GroundTruth.violations

    def spy(self, runtime):
        counted.append(probe_pass(self, runtime))
        return counted[-1]

    monkeypatch.setattr(GroundTruth, "violations", spy)
    unsafe = driver("unsafe", **kwargs)
    assert counted == [unsafe.violations]
    assert unsafe.violations > 0
    assert audit_failures([unsafe]) == []
    # The same cell under a logged protocol is clean — and would not be
    # if the verdict saw the control's count on it.
    boki = driver("boki", **kwargs)
    assert counted[-1] == boki.violations == 0
    boki.violations = unsafe.violations
    assert audit_failures([boki]) == [
        f"boki: {unsafe.violations} exactly-once violations"
    ]


# ----------------------------------------------------------------------
# run_grid: the one sweep template.
# ----------------------------------------------------------------------


def _cell(system, rate, scale=1.0, tracer=None):
    return (system, rate * scale)


class TestRunGrid:
    def test_product_order_is_first_axis_outermost(self):
        grid = run_grid(_cell, dict(system=("a", "b"), rate=(1.0, 2.0)),
                        dict(scale=10.0))
        assert grid.results == [("a", 10.0), ("a", 20.0),
                                ("b", 10.0), ("b", 20.0)]
        assert grid.coords[1] == {"system": "a", "rate": 2.0}
        assert list(grid) == list(zip(grid.coords, grid.results))
        assert grid.crash_notes == []

    def test_explicit_cell_list_and_job_counts_agree(self):
        cells = [dict(system="a", rate=1.0), dict(system="b", rate=5.0),
                 dict(system="b", rate=7.0, scale=2.0)]
        serial = run_grid(_cell, cells)
        assert serial.results == [("a", 1.0), ("b", 5.0), ("b", 14.0)]
        assert run_grid(_cell, cells, jobs=2).results == serial.results

    def test_shared_value_for_an_axis_is_an_error(self):
        with pytest.raises(TypeError, match="swept by this grid"):
            run_grid(_cell, dict(system=("a",), rate=(1.0,)),
                     dict(rate=3.0))

    def test_table_takes_points_and_crash_notes(self):
        grid = run_grid(_cell, dict(system=("a",), rate=(1.0, 2.0)))
        grid.crash_notes.append("sweep worker pool broke; re-ran 1")
        table = ExperimentTable("t", ["a"])
        table.add_note("expected shape")
        assert table.attach(grid) is table
        assert table.points == grid.results
        assert table.notes == ["expected shape",
                               "sweep worker pool broke; re-ran 1"]
        assert "re-ran" in table.render()
        assert "('a', 1.0)" not in table.render()  # points: not rendered


# ----------------------------------------------------------------------
# Tooling guards: the template has one copy.
# ----------------------------------------------------------------------


def test_sweep_cells_are_built_only_by_the_executor():
    sites = [
        path for path, tree in package_modules() for node in ast.walk(tree)
        if isinstance(node, ast.Call) and call_name(node) == "SweepCell"
    ]
    assert sites == ["harness/parallel.py"]


def test_crash_notes_are_popped_only_by_run_grid():
    sites = [
        path for path, tree in package_modules() for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and call_name(node) == "pop_crash_notes"
    ]
    assert sites == ["harness/parallel.py"]


def test_only_the_audit_probes_and_counts():
    probes, counts = [], []
    for path, tree in package_modules():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and call_name(node) == "invoke" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value == "probe"):
                probes.append(path)
            if (isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Subscript)
                    and "expected" in ast.unparse(node.target.value)):
                counts.append(path)
    assert probes == ["harness/audit.py"]
    assert counts == ["harness/audit.py"]


def test_no_system_tuple_outside_the_registry():
    """The compared systems are two constants beside
    ``PROTOCOL_CLASSES``; a literal copy would drift from them."""
    offenders = []
    for path, tree in package_modules():
        if not (path.startswith("harness/") or path == "cli.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List)) and any(
                    isinstance(element, ast.Constant)
                    and element.value == "halfmoon-write"
                    for element in node.elts):
                offenders.append((path, node.lineno))
    assert offenders == []
