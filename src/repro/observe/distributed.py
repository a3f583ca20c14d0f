"""Distributed observability: trace propagation + telemetry shipping.

The PR 3 observe layer instruments one process; the live compute plane
runs many.  This module is the bridge that makes a multi-process run
*one* observable system:

* **Trace-context propagation.**  A trace context is a plain
  ``(trace_id, span_id)`` pair the gateway mints per invocation and
  carries in a header field on RPC frames.  Workers run a wall-clock
  :class:`~repro.observe.tracing.Tracer` whose spans parent directly
  under the gateway's dispatch span — cross-process parent links work
  because span ids are allocated from *disjoint blocks* of the
  gateway tracer's id space (:func:`reserve span blocks
  <repro.observe.tracing.Tracer.reserve_block>`), so merging needs no
  renumbering and a worker span's ``parent_id`` can point straight at
  a gateway span.

* **Wire codec for spans.**  Finished spans flatten to plain tuples
  (:func:`spans_to_wire`) and are rebuilt verbatim on the gateway
  (:func:`absorb_wire_spans`) — ids, parents, args, and annotations
  preserved, so one Chrome export shows gateway dispatch → worker
  attempt → per-op RPC spans under a single ``trace_id``.

* **Telemetry batching.**  :class:`WorkerTelemetry` (worker side)
  drains finished spans, *incremental* metric deltas, and the flight
  recorder's tail into one picklable batch, shipped piggybacked on
  heartbeats — zero extra RPCs beyond frames the worker already sends,
  and zero frames at all when telemetry is off.  :class:`TelemetrySink`
  (gateway side) folds batches into the gateway registry label-safely:
  every shipped metric gains a ``worker=<id>`` label, so worker series
  never collide with the gateway's own or with each other's.

Clocks: workers timestamp spans with the gateway's monotonic epoch
(``t0`` travels in the spawn args; ``CLOCK_MONOTONIC`` is system-wide
on Linux), so gateway and worker spans share one timeline without any
offset fitting.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from ..simulation.metrics import (
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    TimeWeightedGauge,
)
from .registry import MetricsRegistry
from .tracing import Span, Tracer

#: Span-id block reserved per worker process.  A worker that records
#: more spans than this would collide with the next block; one million
#: spans per worker is far beyond any live run this harness drives.
WORKER_SPAN_BLOCK = 1 << 20

#: One span on the wire: ``(trace_id, span_id, parent_id, name,
#: category, start_ms, end_ms_or_None, args, events)`` with events as
#: ``(name, ts_ms, args)`` tuples.
WireSpan = Tuple[str, int, Optional[int], str, str, float,
                 Optional[float], Dict[str, Any],
                 List[Tuple[str, float, Dict[str, Any]]]]


class ParentRef:
    """A parent link to a span that lives in another process.

    ``Tracer.start_span`` only reads ``parent.span_id``; this shim lets
    a worker parent its root span under a gateway span it never sees.
    """

    __slots__ = ("span_id",)

    def __init__(self, span_id: int):
        self.span_id = span_id


def make_worker_tracer(span_base: int) -> Tracer:
    """A tracer allocating ids from a reserved block (see module doc)."""
    tracer = Tracer()
    tracer._next_id = span_base
    return tracer


def span_to_wire(span: Span) -> WireSpan:
    return (
        span.trace_id, span.span_id, span.parent_id, span.name,
        span.category, span.start_ms, span.end_ms, dict(span.args),
        [(e.name, e.ts_ms, dict(e.args)) for e in span.events],
    )


def spans_to_wire(spans: List[Span]) -> List[WireSpan]:
    return [span_to_wire(s) for s in spans]


def absorb_wire_spans(tracer: Tracer, wire: List[WireSpan]) -> int:
    """Rebuild shipped spans into ``tracer`` verbatim (ids preserved).

    Unlike :meth:`Tracer.absorb`, ids are *not* renumbered: workers
    allocate from reserved blocks of this tracer's id space, so the
    shipped ids are already unique here and cross-process parent links
    stay intact.  Returns the number of spans absorbed.
    """
    for (trace_id, span_id, parent_id, name, category, start_ms,
         end_ms, args, events) in wire:
        span = Span(tracer, trace_id, span_id, parent_id, name,
                    category, start_ms, args)
        span.end_ms = end_ms
        for ev_name, ev_ts, ev_args in events:
            span.annotate(ev_name, ev_ts, **ev_args)
        tracer._spans.append(span)
    return len(wire)


# -- metric wire codec ----------------------------------------------------

def _metric_wire(metric: Any, shipped: Dict[int, int]
                 ) -> Optional[Tuple[str, Any]]:
    """One metric's shippable state; ``shipped`` tracks incremental
    high-water marks (samples/points already sent) keyed by ``id()``."""
    if isinstance(metric, LatencyRecorder):
        sent = shipped.get(id(metric), 0)
        samples = metric._samples[sent:]
        shipped[id(metric)] = sent + len(samples)
        if not samples:
            return None
        return ("latency", list(samples))
    if isinstance(metric, Counter):
        counts = metric.as_dict()
        return ("counters", counts) if counts else None
    if isinstance(metric, TimeWeightedGauge):
        return ("gauge", (metric._value, metric._area,
                          metric._last_time, metric._start_time,
                          metric._max_value))
    if isinstance(metric, ThroughputMeter):
        if metric._count == 0:
            return None
        return ("throughput", (metric._count, metric._first_ms,
                               metric._last_ms, metric.min_window_ms))
    if isinstance(metric, TimeSeries):
        sent = shipped.get(id(metric), 0)
        points = metric.points[sent:]
        shipped[id(metric)] = sent + len(points)
        if not points:
            return None
        return ("timeseries", list(points))
    return None


class WorkerTelemetry:
    """Worker-side batcher: spans + metric deltas + flight-recorder tail.

    Built once per worker process; :meth:`batch` is called from the
    heartbeat thread while the main thread keeps invoking, so every
    read is a GIL-atomic snapshot (``list()`` copies) plus per-object
    high-water marks — no locks on the instrumentation hot path.
    """

    def __init__(self, tracer: Optional[Tracer],
                 registry: Optional[MetricsRegistry],
                 flightrec: Optional[Any] = None):
        self.tracer = tracer
        self.registry = registry
        self.flightrec = flightrec
        self._shipped_span_ids: set = set()
        self._metric_marks: Dict[int, int] = {}
        self._flightrec_seq = 0
        self._lock = threading.Lock()

    def batch(self, now_ms: float, final: bool = False
              ) -> Optional[Dict[str, Any]]:
        """Collect everything new since the last call; None if empty.

        ``final`` (the shutdown drain) also ships spans still open —
        an invocation interrupted by shutdown exports as unfinished
        rather than vanishing.
        """
        with self._lock:
            spans: List[WireSpan] = []
            if self.tracer is not None:
                for span in list(self.tracer._spans):
                    if span.span_id in self._shipped_span_ids:
                        continue
                    if span.end_ms is None and not final:
                        continue
                    self._shipped_span_ids.add(span.span_id)
                    spans.append(span_to_wire(span))
            metrics: List[Tuple[str, tuple, str, Any]] = []
            if self.registry is not None:
                for (name, labels), metric in list(
                    self.registry._metrics.items()
                ):
                    wire = _metric_wire(metric, self._metric_marks)
                    if wire is not None:
                        metrics.append((name, labels) + wire)
            events: List[Dict[str, Any]] = []
            if self.flightrec is not None:
                events = self.flightrec.tail(self._flightrec_seq)
                if events:
                    self._flightrec_seq = events[-1]["seq"]
        if not spans and not metrics and not events and not final:
            return None
        return {
            "now_ms": now_ms,
            "spans": spans,
            "metrics": metrics,
            "flightrec": events,
            "final": final,
        }


class TelemetrySink:
    """Gateway-side accumulator for shipped worker telemetry.

    Spans are absorbed straight into the gateway tracer; metrics are
    materialised as real primitives registered under the shipped name
    plus a ``worker=<id>`` label, so the gateway registry's snapshot —
    and therefore ``RunResult.metrics`` and the Prometheus export —
    carries per-worker series next to the gateway's own.
    """

    def __init__(self, tracer: Optional[Tracer],
                 registry: MetricsRegistry):
        self.tracer = tracer
        self.registry = registry
        self.batches = 0
        self.spans_absorbed = 0
        #: worker id → metric key → live primitive.
        self._worker_metrics: Dict[int, Dict[tuple, Any]] = {}
        #: worker id → recent flight-recorder events (bounded).
        self.worker_flightrec: Dict[int, List[Dict[str, Any]]] = {}

    def apply(self, worker_id: int, batch: Dict[str, Any]) -> None:
        self.batches += 1
        if self.tracer is not None and batch.get("spans"):
            self.spans_absorbed += absorb_wire_spans(
                self.tracer, batch["spans"]
            )
        for name, labels, kind, payload in batch.get("metrics", ()):
            self._apply_metric(worker_id, name, labels, kind, payload)
        events = batch.get("flightrec")
        if events:
            lane = self.worker_flightrec.setdefault(worker_id, [])
            lane.extend(events)
            del lane[:-256]

    def _apply_metric(self, worker_id: int, name: str, labels: tuple,
                      kind: str, payload: Any) -> None:
        per_worker = self._worker_metrics.setdefault(worker_id, {})
        key = (name, labels)
        metric = per_worker.get(key)
        label_kwargs = dict(labels)
        label_kwargs["worker"] = worker_id
        if kind == "latency":
            if metric is None:
                metric = per_worker[key] = self.registry.register(
                    name, LatencyRecorder(name), **label_kwargs
                )
            metric._samples.extend(payload)
        elif kind == "counters":
            if metric is None:
                metric = per_worker[key] = self.registry.register(
                    name, Counter(), **label_kwargs
                )
            metric._counts = dict(payload)  # cumulative: replace
        elif kind == "gauge":
            if metric is None:
                metric = per_worker[key] = self.registry.register(
                    name, TimeWeightedGauge(name), **label_kwargs
                )
            (metric._value, metric._area, metric._last_time,
             metric._start_time, metric._max_value) = payload
        elif kind == "throughput":
            if metric is None:
                metric = per_worker[key] = self.registry.register(
                    name, ThroughputMeter(name), **label_kwargs
                )
            (metric._count, metric._first_ms, metric._last_ms,
             _min_window) = payload
        elif kind == "timeseries":
            if metric is None:
                metric = per_worker[key] = self.registry.register(
                    name, TimeSeries(name), **label_kwargs
                )
            metric.points.extend(payload)

    # -- per-worker reads -------------------------------------------------

    def workers(self) -> List[int]:
        return sorted(self._worker_metrics)

    def worker_metric(self, worker_id: int, name: str) -> Optional[Any]:
        for (metric_name, _labels), metric in self._worker_metrics.get(
            worker_id, {}
        ).items():
            if metric_name == name:
                return metric
        return None

    def merged_latency(self, name: str) -> LatencyRecorder:
        """All workers' recorders under ``name``, as one."""
        out = LatencyRecorder(name)
        for worker_id in self.workers():
            metric = self.worker_metric(worker_id, name)
            if isinstance(metric, LatencyRecorder):
                out = out.merged(metric)
        return out

    def merged_throughput(self, name: str,
                          horizon_ms: Optional[float] = None
                          ) -> ThroughputMeter:
        """All workers' meters merged at one horizon (see
        :meth:`ThroughputMeter.merged` for the clamp semantics)."""
        out = ThroughputMeter(name)
        for worker_id in self.workers():
            metric = self.worker_metric(worker_id, name)
            if isinstance(metric, ThroughputMeter):
                out = out.merged(metric, horizon_ms=horizon_ms)
        return out
