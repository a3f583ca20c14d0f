"""Observability layer: tracing, unified metrics, latency breakdowns.

* :mod:`repro.observe.tracing` — deterministic simulated-clock span
  trees per invocation (``tracer=None`` disables with zero overhead);
* :mod:`repro.observe.registry` — one labelled registry unifying the
  measurement primitives of :mod:`repro.simulation.metrics`;
* :mod:`repro.observe.export` — Chrome trace-event JSON for
  Perfetto / ``chrome://tracing``;
* :mod:`repro.observe.breakdown` — per-request latency decomposition
  with exact-sum stage accounting;
* :mod:`repro.observe.distributed` — cross-process trace-context
  propagation and worker telemetry shipping for the live compute
  plane;
* :mod:`repro.observe.flightrec` — bounded ring buffers of recent
  structured events, dumped as JSONL forensics on chaos triggers;
* :mod:`repro.observe.prom` — Prometheus text-format exposition of
  any registry snapshot, plus a pure-python linter.

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(globals(), {
    ".breakdown": (
        "STAGES", "LatencyBreakdown", "breakdown_table", "stage_of",
    ),
    ".distributed": (
        "ParentRef", "TelemetrySink", "WorkerTelemetry", "absorb_wire_spans",
        "make_worker_tracer", "spans_to_wire",
    ),
    ".export": ("chrome_trace", "chrome_trace_events", "write_chrome_trace"),
    ".flightrec": ("FlightRecorder", "read_flightrec"),
    ".prom": ("lint_prom_text", "prom_text", "write_prom_text"),
    ".registry": ("MetricsRegistry",),
    ".tracing": (
        "CAT_ATTEMPT", "CAT_INVOCATION", "CAT_QUEUE", "CAT_RECOVERY",
        "CAT_SERVICE", "PLATFORM_TRACE_ID", "Span", "SpanEvent", "Tracer",
    ),
})

__all__ = [
    "CAT_ATTEMPT",
    "CAT_INVOCATION",
    "CAT_QUEUE",
    "CAT_RECOVERY",
    "CAT_SERVICE",
    "FlightRecorder",
    "LatencyBreakdown",
    "MetricsRegistry",
    "PLATFORM_TRACE_ID",
    "ParentRef",
    "STAGES",
    "Span",
    "SpanEvent",
    "TelemetrySink",
    "Tracer",
    "WorkerTelemetry",
    "absorb_wire_spans",
    "breakdown_table",
    "chrome_trace",
    "chrome_trace_events",
    "lint_prom_text",
    "make_worker_tracer",
    "prom_text",
    "read_flightrec",
    "spans_to_wire",
    "stage_of",
    "write_chrome_trace",
    "write_prom_text",
]
