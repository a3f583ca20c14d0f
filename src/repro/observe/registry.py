"""Central labelled metrics registry.

Before this module, every component kept ad-hoc metric fields — the
backend a ``Counter`` here, the platform a ``LatencyRecorder`` there,
the breakers bare ``trips`` ints — and every report had to know where
each one lived.  :class:`MetricsRegistry` unifies the existing
measurement primitives (:mod:`repro.simulation.metrics`) under one
namespace of ``(name, labels)`` keys with a single :meth:`snapshot`
that :class:`~repro.harness.platform.RunResult` carries.

Three ways to get a metric in:

* the factory accessors (:meth:`latency`, :meth:`counters`,
  :meth:`gauge`, :meth:`throughput`, :meth:`series`) get-or-create a
  primitive owned by the registry;
* :meth:`register` adopts an already-constructed metric object, so
  components keep their direct references while reports read the
  registry;
* :meth:`probe` registers a zero-argument callable evaluated at
  snapshot time, for components whose state *is* the metric (breaker
  state machines, cache occupancy, log bytes).

A component that buffers samples on its hot path and folds them into
its registered metrics later hands the fold to :meth:`collector`, which
:meth:`snapshot` runs first.

The registry never keeps a component alive: a probe or collector that
is a bound method is held through :class:`weakref.WeakMethod`, and one
whose owner is gone is skipped.  So a component that owns its registry
and registers its own methods (``ServiceBackend``) forms no reference
cycle, and a dropped runtime is freed by reference counting at once
instead of waiting for the cyclic collector's next full pass.

Like the primitives themselves, the registry is simulation-agnostic and
deterministic: it never samples a clock and holds plain Python state.
"""

from __future__ import annotations

import inspect
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError
from ..simulation.metrics import (
    Counter,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    TimeWeightedGauge,
)

#: A metric key: name plus sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, Any]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


def _held(fn: Callable) -> Callable[[], Optional[Callable]]:
    """A zero-argument dereference of ``fn``: weak for a bound method
    (``None`` once its owner is gone), strong for anything else."""
    if inspect.ismethod(fn):
        return weakref.WeakMethod(fn)
    return lambda: fn


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """One namespace for every metric a run produces."""

    def __init__(self):
        self._metrics: Dict[MetricKey, Any] = {}
        #: Probes and collectors as :func:`_held` dereferences.
        self._probes: Dict[MetricKey, Callable[[], Optional[Callable]]] = {}
        self._collectors: List[Callable[[], Optional[Callable]]] = []

    # -- registration ---------------------------------------------------

    def register(self, name: str, metric: Any, **labels: Any) -> Any:
        """Adopt an existing metric object under ``(name, labels)``.

        Re-registering the *same* object is a no-op (components may be
        rebuilt around a shared registry); a different object under an
        existing key is an error — two writers would shadow each other.
        """
        key = _key(name, labels)
        existing = self._metrics.get(key)
        if existing is not None:
            if existing is metric:
                return metric
            raise SimulationError(
                f"metric {_render_key(key)!r} already registered "
                "with a different object"
            )
        self._metrics[key] = metric
        return metric

    def probe(self, name: str, fn: Callable[[], Dict[str, Any]],
              **labels: Any) -> None:
        """Register a snapshot-time callable returning a flat dict.

        The summary's ``type`` is ``"probe"`` unless the dict names its
        own — a current-value read reports as ``{"type": "gauge",
        "value": ...}`` and exports like any gauge."""
        key = _key(name, labels)
        if key in self._metrics or key in self._probes:
            raise SimulationError(
                f"metric {_render_key(key)!r} already registered"
            )
        self._probes[key] = _held(fn)

    def collector(self, fn: Callable[[], None]) -> None:
        """Register a callable run at the top of every snapshot (it may
        register metrics of its own while it runs)."""
        self._collectors.append(_held(fn))

    # -- typed get-or-create accessors ----------------------------------

    def _get_or_create(self, name: str, labels: Dict[str, Any],
                       cls: type, factory: Callable[[], Any]) -> Any:
        key = _key(name, labels)
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = factory()
        elif not isinstance(metric, cls):
            raise SimulationError(
                f"metric {_render_key(key)!r} is a "
                f"{type(metric).__name__}, not a {cls.__name__}"
            )
        return metric

    def latency(self, name: str, **labels: Any) -> LatencyRecorder:
        return self._get_or_create(
            name, labels, LatencyRecorder,
            lambda: LatencyRecorder(_render_key(_key(name, labels))),
        )

    def counters(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(name, labels, Counter, Counter)

    def gauge(self, name: str, start_time_ms: float = 0.0,
              initial_value: float = 0.0, **labels: Any
              ) -> TimeWeightedGauge:
        return self._get_or_create(
            name, labels, TimeWeightedGauge,
            lambda: TimeWeightedGauge(
                _render_key(_key(name, labels)), start_time_ms,
                initial_value,
            ),
        )

    def throughput(self, name: str, **labels: Any) -> ThroughputMeter:
        return self._get_or_create(
            name, labels, ThroughputMeter,
            lambda: ThroughputMeter(_render_key(_key(name, labels))),
        )

    def series(self, name: str, **labels: Any) -> TimeSeries:
        return self._get_or_create(
            name, labels, TimeSeries,
            lambda: TimeSeries(_render_key(_key(name, labels))),
        )

    # -- lookup ---------------------------------------------------------

    def get(self, name: str, **labels: Any) -> Any:
        key = _key(name, labels)
        if key in self._metrics:
            return self._metrics[key]
        raise KeyError(_render_key(key))

    def __contains__(self, name: str) -> bool:
        return any(key[0] == name for key in self._metrics) or any(
            key[0] == name for key in self._probes
        )

    def __len__(self) -> int:
        return len(self._metrics) + len(self._probes)

    def labelled(self, name: str) -> Dict[MetricKey, Any]:
        """Every registered instance of ``name`` across label sets."""
        return {key: metric for key, metric in self._metrics.items()
                if key[0] == name}

    def merged_latency(self, name: str) -> LatencyRecorder:
        """Combine every labelled :class:`LatencyRecorder` under
        ``name`` into one fleet-level recorder (parity with
        ``LatencyRecorder.merged``)."""
        out = LatencyRecorder(name)
        for _key_, metric in sorted(self.labelled(name).items()):
            if isinstance(metric, LatencyRecorder):
                out = out.merged(metric)
        return out

    # -- snapshot -------------------------------------------------------

    def snapshot(self, now_ms: Optional[float] = None
                 ) -> Dict[str, Dict[str, Any]]:
        """Plain-data summary of every metric, keyed by rendered name.

        ``now_ms`` closes out time-weighted gauges at the given instant
        (pass the simulation clock); omitted, gauges report up to their
        last update.
        """
        for held in self._collectors:
            collect = held()
            if collect is not None:
                collect()
        out: Dict[str, Dict[str, Any]] = {}
        for key, metric in sorted(self._metrics.items()):
            out[_render_key(key)] = _summarise(metric, now_ms)
        for key, held in sorted(self._probes.items()):
            fn = held()
            if fn is not None:
                out[_render_key(key)] = {"type": "probe", **fn()}
        return out


def _summarise(metric: Any, now_ms: Optional[float]) -> Dict[str, Any]:
    if isinstance(metric, LatencyRecorder):
        if metric.count == 0:
            return {"type": "latency", "count": 0}
        mean, median, p99 = metric.stats()
        return {
            "type": "latency",
            "count": metric.count,
            "mean_ms": mean,
            "median_ms": median,
            "p99_ms": p99,
        }
    if isinstance(metric, Counter):
        return {"type": "counters", "counts": metric.as_dict()}
    if isinstance(metric, TimeWeightedGauge):
        return {
            "type": "gauge",
            "value": metric.value,
            "max_value": metric.max_value,
            "time_average": metric.time_average(now_ms),
        }
    if isinstance(metric, ThroughputMeter):
        return {
            "type": "throughput",
            "count": metric.count,
            "rate_per_sec": metric.rate_per_sec(),
        }
    if isinstance(metric, TimeSeries):
        return {"type": "timeseries", "points": len(metric.points)}
    return {"type": type(metric).__name__, "repr": repr(metric)}
