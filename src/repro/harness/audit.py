"""The exactly-once audit: one ground truth, one probe pass, one verdict.

Every audited experiment — chaos, failover and storagechaos in the
simulator, ``live`` on real processes — drives counters whose correct
final value is computable by construction: each *completed* ``bump``
adds one to its key.  After the run every key is probed through the
protocol (a fresh invocation observes committed state) and compared
against that ground truth.  The two anomaly classes of a recovery bug
both show as a mismatch: a lost orphan leaves its key short, and a
replay that blindly re-applies a write that had already landed leaves
it long.

The experiments differ in what they break and where the code runs; the
audit is this module, and :func:`audit_failures` is the one verdict
over their points.  A point is anything with ``protocol`` and
``violations``; the storage-consistency lists (``anomalies``,
``rebuild_diffs``, ``consistency_anomalies``), ``result`` and
``kills_delivered`` are read where a point has them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..protocols.unsafe import UnsafeProtocol
from ..storageplane.audit import storage_consistency_report

#: The system that promises nothing: it may violate, and where kills
#: were delivered it must, or the schedule was not adversarial.
CONTROL = UnsafeProtocol.name


class GroundTruth:
    """Expected final value of every counter key.

    Completion callbacks (``platform.on_request_complete``) and direct
    request loops both count through :meth:`count`, so "a completed
    bump adds one" is written once.
    """

    def __init__(self, keys: Sequence[str]):
        self.expected: Dict[str, int] = {key: 0 for key in keys}

    def count(self, key: str) -> None:
        self.expected[key] += 1

    def on_request_complete(self, request, latency_ms: float) -> None:
        if request.func_name == "bump":
            self.count(request.input)

    @property
    def bumps(self) -> int:
        return sum(self.expected.values())

    def violations(self, runtime) -> int:
        """Probe every key through the protocol — including the keys no
        request touched, which catch a replay applied to the wrong key —
        and count those that disagree with the ground truth."""
        violations = 0
        for key, expected in self.expected.items():
            if runtime.invoke("probe", key).output != expected:
                violations += 1
        return violations


def storage_anomalies(plane) -> List[str]:
    """The storage-consistency pass: stream integrity, refcounts, trim
    directories, replica agreement (must come back empty)."""
    return list(storage_consistency_report(plane)["anomalies"])


def anomaly_count(point: Any) -> int:
    """Storage-consistency findings a point carries, across the names
    the point classes give them; 0 for a point with no plane audit."""
    return sum(
        len(getattr(point, name, ()))
        for name in ("anomalies", "rebuild_diffs", "consistency_anomalies")
    )


def audit_failures(points: Iterable[Any]) -> List[str]:
    """The verdict: every reason the points fail the audit.

    A safe system fails on any exactly-once violation or consistency
    anomaly; any system fails on an aborted run.  The control is held to
    the opposite standard only where it is known to have been attacked:
    with kills delivered it must violate (otherwise the audit is
    vacuous).  A simulated control that reads 0 at a small size is not a
    failure — its crash draws may simply have missed.
    """
    cells: Dict[str, List[Any]] = {}
    for point in points:
        cells.setdefault(point.protocol, []).append(point)
    failures: List[str] = []
    for system, group in cells.items():
        if system != CONTROL:
            for what, counts in (
                ("exactly-once violations",
                 [point.violations for point in group]),
                ("consistency anomalies",
                 [anomaly_count(point) for point in group]),
            ):
                bad = [count for count in counts if count]
                if bad:
                    where = (f" in {len(bad)} of {len(group)} cells"
                             if len(group) > 1 else "")
                    failures.append(f"{system}: {sum(bad)} {what}{where}")
        for point in group:
            result = getattr(point, "result", None)
            aborted = result.extras.get("aborted") if result else None
            if aborted:
                failures.append(f"{system}: run aborted ({aborted})")
    control = cells.get(CONTROL, ())
    if (any(getattr(point, "kills_delivered", 0) for point in control)
            and not any(point.violations for point in control)):
        failures.append(
            "unsafe control survived the kill schedule — the kills "
            "were not adversarial (audit is vacuous)"
        )
    return failures


def audit_verdict(points: Sequence[Any]) -> Tuple[int, List[str]]:
    """Exit code and the lines every audited command ends with: one
    ``AUDIT FAILURE:`` line per failure (exit 1), or the PASS line with
    the facts an exit code cannot carry (exit 0)."""
    failures = audit_failures(points)
    if failures:
        return 1, [f"AUDIT FAILURE: {failure}" for failure in failures]
    facts = [f"{len(points)} cells"]
    control = [point for point in points if point.protocol == CONTROL]
    if control:
        violated = sum(1 for point in control if point.violations)
        facts.append(
            f"control violated in {violated} of {len(control)} cells"
        )
    kills = [point.kills_delivered for point in points
             if hasattr(point, "kills_delivered")]
    if kills:
        facts.append(
            f"kills delivered in {sum(1 for k in kills if k)} of "
            f"{len(kills)} cells ({sum(kills)} SIGKILLs)"
        )
    return 0, [f"exactly-once audit: PASS ({'; '.join(facts)})"]
