"""Prometheus exposition: every snapshot renders lint-clean text."""

from repro.observe import (
    MetricsRegistry,
    lint_prom_text,
    prom_text,
    write_prom_text,
)
from repro.observe.prom import sanitize_label, sanitize_name
from repro.simulation import TimeSeries


def full_registry():
    reg = MetricsRegistry()
    lat = reg.latency("request_ms")
    lat.extend([1.0, 2.0, 30.0])
    reg.latency("rpc_roundtrip_ms", worker=0).record(0.5)
    reg.latency("rpc_roundtrip_ms", worker=1)  # empty: count-only
    counters = reg.counters("ops")
    counters.add("kv.put", 3)
    counters.add("log.append")
    gauge = reg.gauge("busy", start_time_ms=0.0)
    gauge.set(1.0, 10.0)
    gauge.set(0.0, 25.0)
    meter = reg.throughput("completions")
    meter.record(5.0)
    meter.record(905.0)
    series = reg.register("latency_over_time",
                          TimeSeries("latency_over_time"))
    series.record(1.0, 3.5)
    reg.probe("run", lambda: {"completed": 12, "aborted": False,
                              "note": "strings are skipped"})
    return reg


def test_prom_text_lints_clean_end_to_end(tmp_path):
    reg = full_registry()
    text = write_prom_text(
        reg.snapshot(1000.0), str(tmp_path / "metrics.prom")
    )
    assert lint_prom_text(text) == []
    assert (tmp_path / "metrics.prom").read_text() == text


def test_prom_text_maps_every_metric_type():
    text = prom_text(full_registry().snapshot(1000.0))
    assert 'request_ms_ms{quantile="p99"}' in text
    assert "request_ms_count 3" in text
    assert 'ops_total{key="kv.put"} 3' in text
    assert "busy_time_avg" in text and "busy_max 1" in text
    assert "completions_total 2" in text
    assert "completions_rate_per_s" in text
    assert "latency_over_time_points 1" in text
    assert 'run{field="completed"} 12' in text
    assert 'run{field="aborted"} 0' in text
    assert "strings are skipped" not in text
    # Worker-labelled series render next to the unlabelled family.
    assert 'rpc_roundtrip_ms_count{worker="0"} 1' in text
    assert 'rpc_roundtrip_ms_count{worker="1"} 0' in text


def test_sanitizers_coerce_into_charset():
    assert sanitize_name("rpc round-trip (ms)") == "rpc_round_trip__ms_"
    assert sanitize_name("0leading") == "_0leading"
    assert sanitize_label("kv.put") == "kv_put"


def test_lint_catches_grammar_violations():
    bad = "\n".join([
        "# TYPE good gauge",
        "good 1",
        "",                             # blank line in exposition
        "good 2",                       # duplicate sample
        "1bad_name 3",                  # bad metric name charset
        'late{x="1"} 4',                # sample before its TYPE...
        "# TYPE late gauge",            # ...TYPE after samples
        "# TYPE late gauge",            # duplicate TYPE
        "# TYPE weird banana",          # unknown prom type
        "#",                            # bare comment
        "# NOTE freeform",              # unknown comment keyword
        'vals{a="1"} notanumber',       # non-numeric value
        'brok{a=1} 2',                  # unquoted label value
    ])
    errors = lint_prom_text(bad)
    for needle in (
        "duplicate sample", "unparseable sample", "after", "duplicate TYPE",
        "bad type", "bare comment", "unknown comment", "non-numeric",
        "malformed labels", "blank line",
    ):
        assert any(needle in e for e in errors), (needle, errors)


def test_lint_accepts_escapes_and_special_floats():
    ok = "\n".join([
        "# TYPE m gauge",
        'm{path="a\\"b\\\\c"} NaN',
        "m +Inf",
        "m2 -Inf",
    ]) + "\n"
    # Trailing newline split: filter the final empty piece like a
    # scraper would... lint treats interior blanks as errors only.
    assert lint_prom_text(ok.rstrip("\n")) == []
