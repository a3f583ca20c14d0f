"""Unit tests for the central metrics registry."""

import pytest

from repro.errors import SimulationError
from repro.observe import MetricsRegistry, lint_prom_text, prom_text
from repro.simulation import Counter, LatencyRecorder


class TestFactoryAccessors:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        rec = reg.latency("request_latency")
        assert reg.latency("request_latency") is rec
        assert reg.get("request_latency") is rec

    def test_labels_distinguish_instances(self):
        reg = MetricsRegistry()
        log = reg.gauge("storage_bytes", store="log")
        db = reg.gauge("storage_bytes", store="db")
        assert log is not db
        assert reg.get("storage_bytes", store="log") is log
        assert len(reg.labelled("storage_bytes")) == 2

    def test_label_order_is_irrelevant(self):
        reg = MetricsRegistry()
        a = reg.counters("ops", node=1, kind="read")
        b = reg.counters("ops", kind="read", node=1)
        assert a is b

    def test_type_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.latency("m")
        with pytest.raises(SimulationError):
            reg.counters("m")

    def test_every_primitive_supported(self):
        reg = MetricsRegistry()
        reg.latency("a")
        reg.counters("b")
        reg.gauge("c")
        reg.throughput("d")
        reg.series("e")
        assert len(reg) == 5


class TestRegisterAndProbe:
    def test_register_adopts_existing_object(self):
        reg = MetricsRegistry()
        rec = LatencyRecorder("mine")
        assert reg.register("request_latency", rec) is rec
        assert reg.get("request_latency") is rec

    def test_reregistering_same_object_is_noop(self):
        reg = MetricsRegistry()
        rec = LatencyRecorder("mine")
        reg.register("m", rec)
        assert reg.register("m", rec) is rec

    def test_different_object_under_same_key_rejected(self):
        reg = MetricsRegistry()
        reg.register("m", LatencyRecorder("one"))
        with pytest.raises(SimulationError):
            reg.register("m", LatencyRecorder("two"))

    def test_probe_evaluated_at_snapshot_time(self):
        reg = MetricsRegistry()
        state = {"trips": 0}
        reg.probe("circuit_breaker", lambda: dict(state), service="log")
        state["trips"] = 3
        snap = reg.snapshot()
        assert snap["circuit_breaker{service=log}"] == {
            "type": "probe", "trips": 3,
        }

    def test_probe_may_name_its_own_type(self):
        # A current-value read reports (and exports) as a gauge.
        reg = MetricsRegistry()
        reg.probe("storage_bytes", lambda: {"type": "gauge", "value": 9.0},
                  store="log", shard=0)
        snap = reg.snapshot()
        assert snap["storage_bytes{shard=0,store=log}"] == {
            "type": "gauge", "value": 9.0,
        }
        text = prom_text(snap)
        assert 'storage_bytes{shard="0",store="log"} 9' in text
        assert lint_prom_text(text) == []

    def test_collector_runs_before_each_snapshot(self):
        # A component that buffers on its hot path folds when asked;
        # the fold may register metrics of its own.
        reg = MetricsRegistry()
        buffered = [1.0, 3.0]

        def fold():
            reg.latency("late").extend(buffered)
            buffered.clear()

        reg.collector(fold)
        assert reg.snapshot()["late"]["count"] == 2
        buffered.append(5.0)
        assert reg.snapshot()["late"]["count"] == 3

    def test_duplicate_probe_rejected(self):
        reg = MetricsRegistry()
        reg.probe("p", dict)
        with pytest.raises(SimulationError):
            reg.probe("p", dict)

    def test_contains_sees_metrics_and_probes(self):
        reg = MetricsRegistry()
        reg.latency("m")
        reg.probe("p", dict)
        assert "m" in reg and "p" in reg and "missing" not in reg

    def test_get_missing_raises_keyerror(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.get("nope", label="x")


class TestSnapshot:
    def test_snapshot_summarises_each_type(self):
        reg = MetricsRegistry()
        reg.latency("lat").extend([1.0, 2.0, 3.0])
        reg.counters("ctr").add("x", 4)
        reg.gauge("g").set(7.0, now_ms=10.0)
        reg.throughput("thr").record(100.0)
        reg.series("ts").record(1.0, 2.0)
        snap = reg.snapshot(now_ms=20.0)
        assert snap["lat"]["median_ms"] == 2.0
        assert snap["ctr"]["counts"] == {"x": 4}
        assert snap["g"]["value"] == 7.0
        assert snap["thr"]["count"] == 1
        assert snap["ts"]["points"] == 1

    def test_empty_latency_snapshot(self):
        reg = MetricsRegistry()
        reg.latency("lat")
        assert reg.snapshot()["lat"] == {"type": "latency", "count": 0}

    def test_rendered_keys_sorted_and_labelled(self):
        reg = MetricsRegistry()
        reg.counters("b", node=2)
        reg.counters("a")
        keys = list(reg.snapshot())
        assert keys == ["a", "b{node=2}"]


class TestMergedLatency:
    def test_merged_latency_combines_label_sets(self):
        reg = MetricsRegistry()
        reg.latency("op_latency", kind="read").extend([1.0, 3.0])
        reg.latency("op_latency", kind="write").extend([2.0])
        merged = reg.merged_latency("op_latency")
        assert merged.count == 3
        assert merged.median() == 2.0

    def test_merged_latency_skips_non_recorders(self):
        reg = MetricsRegistry()
        reg.latency("m", kind="a").record(5.0)
        reg.register("m", Counter(), kind="b")
        assert reg.merged_latency("m").count == 1
