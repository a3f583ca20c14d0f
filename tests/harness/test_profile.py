"""``python -m repro profile``: the pstats table plus one line that
books the cyclic collector, which cProfile charges to whichever frame
happened to allocate."""

import re

from repro.harness.profile_exp import profile_report

COLLECTOR_LINE = re.compile(
    r"^collector: (\d+) passes \((\d+) full\), \d+\.\d ms "
    r"= \d+\.\d% of profiled CPU$",
    re.MULTILINE,
)


def test_chaos_report_carries_the_collector_line():
    report = profile_report("chaos", top=5)
    match = COLLECTOR_LINE.search(report)
    assert match is not None, report[:400]
    passes, full = int(match.group(1)), int(match.group(2))
    assert 0 <= full <= passes
    assert "_chaos_cell" in report  # the pstats table follows
