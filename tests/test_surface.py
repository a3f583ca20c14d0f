"""Surface census guard: docs/SURFACE.md stays true.

A config field nothing reads, a flag or a metric series with no row (or
with reader "nobody") fails here instead of hollowing out a test — the
way ``FailureConfig.crash_probability`` once left a golden test
comparing ``0 == 0`` crashed attempts.
"""

import ast
import dataclasses
import pathlib
import re

from repro import cli, config
from tests.conftest import call_name, package_modules

DOCS = pathlib.Path(__file__).resolve().parents[1] / "docs"

#: The ``MetricsRegistry`` methods that take a series name.
SERIES_METHODS = {"register", "probe", "latency", "counters", "gauge",
                  "throughput", "series"}


def _config_dataclasses():
    return [cls for cls in vars(config).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)]


def _attribute_reads(tree):
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _documented(*files):
    """``{backticked name: reader cell}`` over the markdown table rows of
    ``files``: names come from a row's first cell (a series drops its
    ``{labels}``), the reader is its last cell."""
    readers = {}
    for name in files:
        for line in (DOCS / name).read_text().splitlines():
            cells = [cell.strip() for cell in line.strip().split(" | ")]
            if not line.startswith("| ") or len(cells) < 2:
                continue
            for token in re.findall(r"`([^`]+)`", cells[0]):
                readers[token.split("{")[0]] = cells[-1].rstrip(" |")
    return readers


def test_every_config_field_has_a_reader_outside_config_py():
    read = set()
    through_property = {}
    for path, tree in package_modules():
        if path != "config.py":
            read |= _attribute_reads(tree)
            continue
        # A derived property of config.py (``FaultConfig.total_rate``)
        # forwards the reads of whoever reads the property.
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name not in ("validate", "uniform")
                    and not node.name.startswith("with_")):
                through_property[node.name] = _attribute_reads(node)
    for name, fields in through_property.items():
        if name in read:
            read |= fields
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in _config_dataclasses()
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert unread == []


def test_every_config_field_has_a_row_in_surface_md():
    documented = _documented("SURFACE.md")
    missing = [
        f"{cls.__name__}.{field.name}"
        for cls in _config_dataclasses()
        for field in dataclasses.fields(cls)
        if f"{cls.__name__}.{field.name}" not in documented
        and field.name not in documented
    ]
    assert missing == []


def test_every_cli_flag_has_a_reader_row():
    documented = _documented("SURFACE.md")
    spellings = {flag.spelling for flag in cli.SHARED_FLAGS}
    for command in cli.COMMANDS.values():
        spellings |= {flag.spelling for flag in command.flags}
    unread = sorted(s for s in spellings
                    if documented.get(s, "nobody").startswith("nobody"))
    assert unread == []


def test_every_metric_series_has_a_reader_row():
    documented = _documented("SURFACE.md", "OBSERVABILITY.md")
    series = set()
    for path, tree in package_modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and call_name(node) in SERIES_METHODS
                    and isinstance(node.func, ast.Attribute)
                    and node.args
                    and isinstance(node.args[0], ast.Constant)):
                continue
            # ``metrics.register(...)``, ``self.metrics.probe(...)``,
            # a worker's ``wreg.latency(...)`` — not ``runtime.register``.
            owner = ast.unparse(node.func.value).rsplit(".", 1)[-1]
            if owner in ("metrics", "wreg"):
                series.add(node.args[0].value)
    assert {"request_latency", "ops", "record_cache",
            "rpc_roundtrip_ms"} <= series  # the walk still finds them
    unread = sorted(s for s in series
                    if documented.get(s, "nobody").startswith("nobody"))
    assert unread == []
