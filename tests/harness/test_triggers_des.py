"""Trigger edges (Section 4.4) under the DES.

The DES drives the same lifecycle generator as direct mode, so a
``ctx.trigger`` edge fires there too: the callee arrives at the parent's
completion instant under the callee id the parent logged.

Accounting choice (also in DESIGN.md): a triggered callee is platform
work, not a client request.  It occupies a worker slot and is tracked
like any invocation, and ``on_request_complete`` sees it (audits need
every finished invocation), but ``RunResult.completed`` and the latency
statistics count client arrivals only.
"""

import pytest

from repro import SystemConfig
from repro.config import ClusterConfig
from repro.harness import SimPlatform
from repro.runtime import CrashOnceAtEvery, CrashPolicy
from repro.workloads.base import Request, Workload
from tests.conftest import make_runtime

TOKENS = 64


class UpDownWorkload(Workload):
    """``up(token)`` writes its marker and triggers ``down(token)``."""

    name = "up-down"

    def __init__(self):
        self._next = 0

    def register(self, runtime) -> None:
        def up(ctx, token):
            ctx.write(f"up:{token}", 1)
            ctx.trigger("down", token)

        def down(ctx, token):
            # Real-time boundary: the callee starts after its cause.
            assert ctx.read(f"up:{token}") == 1
            ctx.write(f"down:{token}", ctx.read(f"down:{token}") + 1)

        runtime.register("up", up)
        runtime.register("down", down)
        runtime.register(
            "probe", lambda ctx, token: ctx.read(f"down:{token}")
        )

    def populate(self, runtime) -> None:
        for token in range(TOKENS):
            runtime.populate(f"up:{token}", 0)
            runtime.populate(f"down:{token}", 0)

    def next_request(self, rng) -> Request:
        token = self._next
        self._next += 1
        return Request("up", token)

    def read_write_profile(self):
        return (1.0, 1.0)


def run_up_down(protocol, crash_policy=None):
    platform = SimPlatform(
        UpDownWorkload(), protocol,
        SystemConfig(
            seed=33,
            cluster=ClusterConfig(function_nodes=2, workers_per_node=4),
        ),
    )
    if crash_policy is not None:
        platform.runtime.crash_policy = crash_policy
    completions = []
    platform.on_request_complete = (
        lambda request, _latency: completions.append(
            (request.func_name, request.input)
        )
    )
    result = platform.run(100.0, 300.0)
    return platform, result, completions


def assert_one_down_per_up(platform, result, completions):
    ups = sorted(t for func, t in completions if func == "up")
    downs = sorted(t for func, t in completions if func == "down")
    assert len(ups) > 10
    assert downs == ups
    # Exactly-once effect, observed through the protocol.
    for token in ups:
        assert platform.runtime.invoke("probe", token).output == 1
    # Callees are not client requests.
    assert result.completed == len(ups)
    assert platform.runtime.tracker.running_count == 0


def test_des_fires_trigger_edges(protocol_name):
    assert_one_down_per_up(*run_up_down(protocol_name))


def trigger_intent_checkpoints(protocol):
    """1-based checkpoint ordinals of ``up``'s trigger-intent append
    (its last step): before and after the record is logged."""
    labels = {}

    class Recording(CrashPolicy):
        def hook_for(self, instance_id, attempt):
            return labels.setdefault(instance_id, []).append

    runtime = make_runtime(protocol, crash_policy=Recording())
    workload = UpDownWorkload()
    workload.register(runtime)
    workload.populate(runtime)
    runtime.invoke("up", 0, instance_id="the-up")
    seen = labels["the-up"]
    assert seen[-2:] == ["log_cond_append:pre", "log_cond_append:post"]
    return len(seen) - 1, len(seen)


@pytest.mark.parametrize("phase", ["intent-not-logged", "intent-logged"])
def test_des_trigger_survives_crash_on_intent_step(protocol_name, phase):
    """Killing ``up`` on its trigger-intent step: the replay registers
    the callee once, under the same logged id."""
    pre, post = trigger_intent_checkpoints(protocol_name)
    policy = CrashOnceAtEvery(pre if phase == "intent-not-logged" else post)
    platform, result, completions = run_up_down(protocol_name, policy)
    assert result.crashed_attempts > 0
    assert_one_down_per_up(platform, result, completions)
