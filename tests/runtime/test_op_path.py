"""Every ``InstanceServices`` op takes one path (``_call``) whether the
attempt is traced or not and whether faults are armed or not.

The three conditions below used to be three code paths (inline bodies,
the failure-free half of ``_service_call``, its resilient half); the
table runs every op under each and checks they cannot be told apart by
results, counters or RNG consumption.
"""

import pytest

from repro import SystemConfig
from repro.errors import ConditionalAppendError
from repro.observe import CAT_ATTEMPT, CAT_SERVICE, Span, Tracer
from repro.runtime import InstanceServices, ServiceBackend


def _lost_cond_append(svc):
    try:
        svc.log_cond_append(["t:a"], {"n": 9}, "t:a", 0)
    except ConditionalAppendError as lost:
        return ("lost-to", lost.existing_seqnum)


#: (label, op).  Order matters: later rows read what earlier rows wrote.
OPS = [
    ("log_append", lambda s: s.log_append(["t:a"], {"n": 0})),
    ("log_append control",
     lambda s: s.log_append(["t:b"], {"n": 1}, control=True)),
    ("log_cond_append",
     lambda s: s.log_cond_append(["t:a"], {"n": 2}, "t:a", 1)),
    ("log_cond_append lost", _lost_cond_append),
    ("log_read_prev", lambda s: s.log_read_prev("t:a", 1 << 40).seqnum),
    ("log_read_prev none", lambda s: s.log_read_prev("t:none", 1 << 40)),
    ("log_read_next", lambda s: s.log_read_next("t:a", 0).seqnum),
    ("log_read_stream",
     lambda s: [r.seqnum for r in s.log_read_stream("t:a")]),
    ("log_record_at", lambda s: s.log_record_at("t:a", 1).data["n"]),
    ("db_write", lambda s: s.db_write("k", "v0")),
    ("db_read", lambda s: s.db_read("k")),
    ("db_read default", lambda s: s.db_read("missing", "dflt")),
    ("db_cond_write", lambda s: s.db_cond_write("k", "v1", (1, 1))),
    ("db_cond_write stale", lambda s: s.db_cond_write("k", "v2", (0, 9))),
    ("db_read_with_version", lambda s: s.db_read_with_version("k")),
    ("db_write_version", lambda s: s.db_write_version("k", "ver", "old")),
    ("db_read_version", lambda s: s.db_read_version("k", "ver")),
]

#: Every public log/store op of the services facade is in the table.
OP_METHODS = {
    name for name in vars(InstanceServices)
    if name.startswith(("log_", "db_")) and name != "log_tail"
}


def run_ops(fault_rate, traced):
    config = SystemConfig(seed=2024)
    if fault_rate:
        config = config.with_fault_rate(fault_rate)
    backend = ServiceBackend(config)
    svc = InstanceServices(backend)
    tracer = None
    if traced:
        tracer = Tracer()
        svc.attach_span(
            tracer.start_span("attempt-1", CAT_ATTEMPT, 0.0, trace_id="t"),
            0.0,
        )
    results = [(label, op(svc)) for label, op in OPS]
    return {
        "results": results,
        "counters": backend.counters.as_dict(),
        "latency_ms": svc.trace.total_ms(),
        "rng": {
            stream: backend.rng.stream(stream).bit_generator.state
            for stream in ("service-latency", "infra-faults",
                           "retry-jitter")
        },
        "tracer": tracer,
    }


def test_table_covers_every_op():
    used = {label.split()[0] for label, _ in OPS}
    assert used == OP_METHODS
    assert len(OP_METHODS) == 12


@pytest.mark.parametrize("fault_rate", [0.0, 0.4],
                         ids=["fault-free", "faults-on"])
def test_tracing_does_not_change_an_op(fault_rate):
    plain = run_ops(fault_rate, traced=False)
    traced = run_ops(fault_rate, traced=True)
    for field in ("results", "counters", "latency_ms", "rng"):
        assert traced[field] == plain[field], field
    # One service span per op, each closed.
    spans = traced["tracer"].spans_in(CAT_SERVICE)
    assert len(spans) == len(OPS)
    assert all(span.finished for span in spans)
    noted = {e.name for span in spans for e in span.events}
    assert "substrate-error" in noted  # the lost conditional append
    assert ("retry" in noted) == bool(fault_rate)


def test_faults_do_not_change_results():
    """Retries absorb the injected faults: same results, more charges,
    and only the armed run draws from the fault stream."""
    clean = run_ops(0.0, traced=False)
    faulty = run_ops(0.4, traced=False)
    assert faulty["results"] == clean["results"]
    assert faulty["counters"]["service_retries"] > 0
    assert faulty["latency_ms"] > clean["latency_ms"]
    assert clean["rng"]["infra-faults"] != faulty["rng"]["infra-faults"]
    fresh = ServiceBackend(SystemConfig(seed=2024))
    assert clean["rng"]["infra-faults"] == (
        fresh.rng.stream("infra-faults").bit_generator.state
    )


def test_untraced_ops_allocate_no_spans(monkeypatch):
    def no_spans(*args, **kwargs):
        raise AssertionError("span allocated with tracing off")

    monkeypatch.setattr(Span, "__init__", no_spans)
    run_ops(0.0, traced=False)
    run_ops(0.4, traced=False)
