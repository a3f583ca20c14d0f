"""Composition of the two fault dimensions: infrastructure faults
(transient log/store errors, timeouts, gray failure) injected while the
crash machinery is also firing.

The core property: exactly-once must survive the *combination* — a crash
landing in the middle of a retry storm still yields each effect exactly
once for every logged protocol.  ``unsafe`` is exempt by design.
"""

from dataclasses import replace

import pytest

from repro import CrashOnceAtEvery, LocalRuntime, SystemConfig
from repro.errors import (
    ServiceTimeoutError,
    ServiceUnavailableError,
    TransientServiceError,
)
from repro.runtime.services import Cost
from tests.conftest import PROTOCOLS

FAULT_RATE = 0.25  # aggressive: most invocations see at least one fault


def faulty_config(seed=1234, rate=FAULT_RATE, **resilience):
    config = SystemConfig(seed=seed).with_fault_rate(rate)
    if resilience:
        config = config.with_resilience(**resilience)
    return config


def build_counter_runtime(protocol, config, crash_policy=None):
    runtime = LocalRuntime(config, protocol=protocol,
                           crash_policy=crash_policy)
    runtime.populate("n", 0)

    def bump(ctx, inp):
        value = ctx.read("n")
        ctx.write("n", value + 1)
        return value + 1

    runtime.register("bump", bump)
    runtime.register("probe", lambda ctx, inp: ctx.read("n"))
    return runtime


class TestErrorTaxonomy:
    def test_transient_errors_are_retryable(self):
        assert TransientServiceError("x").retryable
        assert ServiceTimeoutError("x").retryable
        assert ServiceUnavailableError("x").retryable

    def test_service_metadata_carried(self):
        err = ServiceUnavailableError("log gave up", service="log",
                                      op="log_append")
        assert err.service == "log"
        assert err.op == "log_append"


class TestRetriesInsideServices:
    def test_faulted_ops_are_retried_transparently(self, protocol_name):
        """At a hefty fault rate every invocation still succeeds; the
        substrate layer absorbs the faults via retries."""
        runtime = build_counter_runtime(protocol_name, faulty_config())
        for expected in range(1, 31):
            assert runtime.invoke("bump").output == expected
        assert runtime.invoke("probe").output == 30
        counters = runtime.backend.counters.as_dict()
        assert counters.get("service_retries", 0) > 0

    def test_backoff_charged_to_cost_trace(self, protocol_name):
        runtime = build_counter_runtime(protocol_name, faulty_config())
        results = [runtime.invoke("bump") for _ in range(30)]
        counters = runtime.backend.counters.as_dict()
        assert counters.get(Cost.RETRY_BACKOFF, 0) > 0
        # Error/timeout attempts are charged too.
        assert (counters.get(Cost.SERVICE_ERROR, 0)
                + counters.get(Cost.SERVICE_TIMEOUT, 0)) > 0
        # The backoff lands in the invocations' own cost traces.
        assert any(result.cost_by_kind.get(Cost.RETRY_BACKOFF, 0.0) > 0.0
                   for result in results)

    def test_faults_slow_requests_down(self, protocol_name):
        """p99 under faults strictly exceeds the failure-free p99 (the
        resilience layer charges retries, backoff, and timeouts)."""

        def p99(config):
            runtime = build_counter_runtime(protocol_name, config)
            samples = [runtime.invoke("bump").latency_ms
                       for _ in range(60)]
            samples.sort()
            return samples[int(0.99 * (len(samples) - 1))]

        assert p99(faulty_config()) > p99(
            SystemConfig(seed=1234)
        )

    def test_instance_level_retry_on_exhausted_budget(self):
        """With a one-shot retry budget, a faulted op escalates to the
        instance level; LocalRuntime re-runs the attempt and the final
        state is still exactly-once."""
        config = faulty_config(max_attempts=1)
        runtime = build_counter_runtime("halfmoon-read", config)
        for expected in range(1, 41):
            assert runtime.invoke("bump").output == expected
        counters = runtime.backend.counters.as_dict()
        assert counters.get("attempts_lost_to_service_faults", 0) > 0
        assert runtime.invoke("probe").output == 40

    def test_deadline_escalates_as_timeout(self):
        """An op deadline shorter than one attempt timeout turns every
        injected timeout into an instance-level ServiceTimeoutError —
        which the runtime also absorbs by re-running the attempt."""
        config = faulty_config(op_deadline_ms=5.0, attempt_timeout_ms=10.0)
        runtime = build_counter_runtime("boki", config)
        for expected in range(1, 31):
            assert runtime.invoke("bump").output == expected
        assert runtime.backend.counters.as_dict().get(
            "attempts_lost_to_service_faults", 0
        ) > 0


class TestCrashComposition:
    """Exhaustive crash-at-every-checkpoint sweeps with faults active."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_exactly_once_under_crash_and_faults(self, protocol):
        for crash_at in range(1, 25):
            runtime = build_counter_runtime(
                protocol, faulty_config(seed=100 + crash_at),
                crash_policy=CrashOnceAtEvery(crash_at),
            )
            assert runtime.invoke("bump").output == 1
            assert runtime.invoke("probe").output == 1

    def test_unsafe_is_not_exactly_once(self):
        """The control: unsafe double-applies when crashed after its
        write — with or without infra faults."""
        violations = 0
        for crash_at in range(1, 8):
            runtime = build_counter_runtime(
                "unsafe", faulty_config(seed=100 + crash_at),
                crash_policy=CrashOnceAtEvery(crash_at),
            )
            runtime.invoke("bump")
            if runtime.invoke("probe").output != 1:
                violations += 1
        assert violations > 0

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_transactions_survive_crash_and_faults(self, protocol):
        for crash_at in range(1, 31):
            runtime = LocalRuntime(
                faulty_config(seed=200 + crash_at), protocol=protocol,
                crash_policy=CrashOnceAtEvery(crash_at),
            )
            runtime.populate("src", 100)
            runtime.populate("dst", 0)

            def transfer(ctx, amount):
                def body(txn):
                    txn.write("src", txn.read("src") - amount)
                    txn.write("dst", txn.read("dst") + amount)
                    return True

                return ctx.transaction(body)

            runtime.register("transfer", transfer)
            runtime.register(
                "probe",
                lambda ctx, inp: (ctx.read("src"), ctx.read("dst")),
            )
            assert runtime.invoke("transfer", 30).output is True
            assert runtime.invoke("probe").output == (70, 30)

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_triggers_fire_exactly_once_under_crash_and_faults(
        self, protocol
    ):
        for crash_at in range(1, 31):
            runtime = LocalRuntime(
                faulty_config(seed=300 + crash_at), protocol=protocol,
                crash_policy=CrashOnceAtEvery(crash_at),
            )
            runtime.populate("derived", 0)

            def ingest(ctx, inp):
                ctx.trigger("postprocess", inp)
                return inp

            def postprocess(ctx, inp):
                ctx.write("derived", ctx.read("derived") + inp)
                return inp

            runtime.register("ingest", ingest)
            runtime.register("postprocess", postprocess)
            runtime.register("probe",
                             lambda ctx, inp: ctx.read("derived"))
            runtime.invoke("ingest", 5)
            assert runtime.invoke("probe").output == 5


class TestDegradedModes:
    def test_brownout_serves_cached_log_reads(self):
        """A log-scoped brown-out trips the breaker; cache-resident
        reads are then served node-locally, and results stay correct."""
        config = (
            SystemConfig(seed=77)
            .with_fault_rate(0.45, scope="log")
            .with_resilience(breaker_failure_threshold=3,
                             breaker_cooldown_ops=20)
        )
        runtime = build_counter_runtime("halfmoon-read", config)
        runtime.invoke("bump")
        for _ in range(80):
            assert runtime.invoke("probe").output == 1
        counters = runtime.backend.counters.as_dict()
        assert counters.get("degraded_log_reads", 0) > 0
        assert runtime.backend.breaker_trips() > 0

    def test_fallback_disabled_means_no_degraded_reads(self):
        config = (
            SystemConfig(seed=77)
            .with_fault_rate(0.45, scope="log")
            .with_resilience(breaker_failure_threshold=3,
                             breaker_cooldown_ops=20,
                             degraded_log_reads=False)
        )
        runtime = build_counter_runtime("halfmoon-read", config)
        runtime.invoke("bump")
        for _ in range(80):
            assert runtime.invoke("probe").output == 1
        assert runtime.backend.counters.as_dict().get(
            "degraded_log_reads", 0
        ) == 0

    def test_background_appends_dropped_not_retried(self):
        """Opportunistic checkpoint appends are best-effort: under
        faults they are dropped (never retried) and correctness holds."""
        base = SystemConfig(seed=55).with_fault_rate(0.3)
        config = replace(
            base,
            protocol=replace(base.protocol,
                             checkpoint_log_free_reads=True),
        )
        runtime = build_counter_runtime("halfmoon-read", config)
        for expected in range(1, 41):
            assert runtime.invoke("bump").output == expected
        counters = runtime.backend.counters.as_dict()
        assert counters.get("background_appends_dropped", 0) > 0
        assert runtime.invoke("probe").output == 40


class TestDeterminism:
    def test_same_seed_same_fault_outcome(self, protocol_name):
        def run():
            runtime = build_counter_runtime(protocol_name,
                                            faulty_config(seed=31))
            latencies = tuple(runtime.invoke("bump").latency_ms
                              for _ in range(20))
            return latencies, runtime.backend.counters.as_dict()

        assert run() == run()
