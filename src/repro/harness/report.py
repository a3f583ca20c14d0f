"""Result tables: a tiny structured container plus text rendering.

Every experiment in the harness returns an :class:`ExperimentTable`, so
benchmarks can both assert on the numbers and print the same rows the
paper reports, and ``examples/reproduce_paper.py`` can assemble
EXPERIMENTS.md from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ExperimentTable:
    name: str                      # e.g. "Figure 10(a): read latency"
    headers: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Every cell result of the sweep that produced the table, in grid
    #: order.  Never rendered: it is how a caller reaches the full
    #: points (breakdowns, audit counts) behind the printed rows.
    points: List[Any] = field(
        default_factory=list, repr=False, compare=False
    )

    def attach(self, grid) -> "ExperimentTable":
        """Take a finished :class:`~repro.harness.parallel.Grid` onto
        the table: its results become :attr:`points`, its crash notes
        report notes."""
        self.points.extend(grid.results)
        self.notes.extend(grid.crash_notes)
        return self

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row width {len(values)} != header width "
                f"{len(self.headers)}"
            )
        self.rows.append(list(values))

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, header: str) -> List[Any]:
        index = self.headers.index(header)
        return [row[index] for row in self.rows]

    def lookup(self, match: Dict[str, Any], header: str) -> Any:
        """Value of ``header`` in the first row matching all of ``match``."""
        target = self.headers.index(header)
        for row in self.rows:
            if all(row[self.headers.index(h)] == v
                   for h, v in match.items()):
                return row[target]
        raise KeyError(f"no row matching {match!r}")

    def render(self, float_fmt: str = "{:.2f}") -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        cells = [self.headers] + [
            [fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells)
            for i in range(len(self.headers))
        ]
        lines = [f"## {self.name}"]
        lines.append(
            "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append(
                "  ".join(c.rjust(w) for c, w in zip(row, widths))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def render_markdown(self, float_fmt: str = "{:.2f}") -> str:
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return float_fmt.format(value)
            return str(value)

        lines = [f"### {self.name}", ""]
        lines.append("| " + " | ".join(self.headers) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"*{note}*")
        return "\n".join(lines)
