"""Substrate microbenchmarks (classic pytest-benchmark usage).

Times the hot paths of the building blocks: shared-log appends and
sub-stream reads, conditional KV updates, the DES event loop, and a full
direct-mode invocation per protocol.  These track the reproduction's own
performance rather than a figure from the paper.
"""

import numpy as np
import pytest

from repro import LocalRuntime, SystemConfig
from repro.sharedlog import SharedLog
from repro.simulation import NormalDrawBatch, Simulator
from repro.simulation.latency import LogNormalLatency
from repro.store import KVStore


def test_log_append_throughput(benchmark):
    log = SharedLog()
    counter = {"i": 0}

    def append():
        counter["i"] += 1
        log.append(["i", f"k{counter['i'] % 64}"], {"step": counter["i"]})

    benchmark(append)


def test_log_read_prev_throughput(benchmark):
    log = SharedLog()
    for i in range(10_000):
        log.append([f"k{i % 64}"], {"i": i})
    benchmark(lambda: log.read_prev("k7", 9_000))


def test_kv_conditional_put_throughput(benchmark):
    kv = KVStore()
    counter = {"v": 0}

    def put():
        counter["v"] += 1
        kv.conditional_put("hot", counter["v"], (counter["v"], 1))

    benchmark(put)


def test_simulator_event_throughput(benchmark):
    def run_events():
        sim = Simulator()

        def ticker():
            for _ in range(1_000):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.run()

    benchmark(run_events)


def test_simulator_bare_delay_throughput(benchmark):
    # The bare-delay fast path (`yield 1.0`): no Timeout object, no
    # callback list — against test_simulator_event_throughput above,
    # the same 1k events through Timeout objects.
    def run_events():
        sim = Simulator()

        def ticker():
            for _ in range(1_000):
                yield 1.0

        sim.process(ticker())
        sim.run()

    benchmark(run_events)


def test_heap_drain_same_instant_batch(benchmark):
    # Worst-case same-instant batching: hundreds of processes colliding
    # on every timestamp, so each run() iteration drains a wide batch.
    def run_events():
        sim = Simulator()

        def ticker():
            for _ in range(20):
                yield 1.0

        for _ in range(200):
            sim.process(ticker())
        sim.run()

    benchmark(run_events)


def test_sampler_batched_lognormal(benchmark):
    model = LogNormalLatency(2.0, 9.0)
    batch = NormalDrawBatch(np.random.default_rng(7))
    sampler = model.batched_sampler(batch)

    def draw_many():
        for _ in range(1_000):
            sampler()

    benchmark(draw_many)


def test_sampler_scalar_lognormal(benchmark):
    # The baseline the batched sampler replaces (bit-identical values,
    # one numpy scalar call per draw).
    model = LogNormalLatency(2.0, 9.0)
    rng = np.random.default_rng(7)

    def draw_many():
        for _ in range(1_000):
            model.sample(rng)

    benchmark(draw_many)


@pytest.mark.parametrize(
    "protocol", ["unsafe", "boki", "halfmoon-read", "halfmoon-write"]
)
def test_invocation_throughput(benchmark, protocol):
    runtime = LocalRuntime(SystemConfig(seed=3), protocol=protocol)
    runtime.populate("X", 0)

    def bump(ctx, inp):
        ctx.write("X", ctx.read("X") + 1)

    runtime.register("bump", bump)
    benchmark(lambda: runtime.invoke("bump"))
