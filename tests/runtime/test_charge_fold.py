"""The charge path appends one record per charge — the cost trace's
``(kind, ms, placement)`` tuple — and bumps the ``ops`` counter;
nothing else keeps charges.  The counters and run results below are
literals that must not move by an ulp.  A tooling guard keeps the
push-style notification layer (and any second charge buffer) from
growing back.
"""

import ast
import pathlib
import re

import numpy as np

import repro
from repro import LocalRuntime, SystemConfig
from repro.harness import run_shard_point, shard_sweep_config
from repro.workloads import MixedRatioWorkload

# fmt: off
DES_COUNTERS = {'compute': 410,
 'db_cond_write': 2035,
 'db_read': 2065,
 'log_append': 4100,
 'log_append_control': 410,
 'log_append_overlapped': 2035,
 'log_read': 410}
DES_RESULT = (369, 42.51840478705026, 55.082156531488266, 42.85645620374801, 731486.5358627402, 102400.0)
DIRECT_COUNTERS = {'compute': 40,
 'db_cond_write': 111,
 'db_read': 129,
 'log_append': 129,
 'log_append_control': 40,
 'log_read': 40,
 'retry_backoff': 23,
 'service_error': 14,
 'service_retries': 23,
 'service_timeout': 9}

# fmt: on


def test_des_cell_counters_and_result_pinned():
    """A 2x2 sharded DES cell: op counts and run results are literals,
    and the metrics snapshot carries no per-charge latency series."""
    result = run_shard_point(
        2, 200.0, duration_ms=2_000.0, warmup_ms=200.0, num_keys=200,
        config=SystemConfig(seed=29),
    )
    assert result.counters == DES_COUNTERS
    assert (result.completed, result.median_ms, result.p99_ms,
            result.mean_ms, result.avg_log_bytes,
            result.avg_db_bytes) == DES_RESULT
    assert not any(key.startswith("op_latency") for key in result.metrics)


def test_direct_mode_counters_pinned_under_faults():
    """Direct mode under infrastructure faults: ``charge_raw`` kinds
    (backoff, error and timeout burns) are counted like any charge."""
    config = shard_sweep_config(2, SystemConfig(seed=31)).with_fault_rate(
        0.05
    )
    runtime = LocalRuntime(config, protocol="halfmoon-write")
    workload = MixedRatioWorkload(0.5, num_keys=50, ops_per_request=6)
    workload.register(runtime)
    workload.populate(runtime)
    rng = np.random.default_rng(5)
    for _ in range(40):
        request = workload.next_request(rng)
        runtime.invoke(request.func_name, request.input)
    assert runtime.backend.counters.as_dict() == DIRECT_COUNTERS


# ----------------------------------------------------------------------
# Tooling guard: accounting stays off the request path.
# ----------------------------------------------------------------------

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
#: (``InvocationTracker.add_finish_listener`` is protocol logic — the
#: switch manager waits on it — not accounting; it stays.)
PUSH_LAYER = re.compile(
    r"add_\w*storage_listener|_notify_storage|_on_partition_change"
    r"|_note_channels|_integrate_pending"
)


def _function(relative_path, class_name, name):
    tree = ast.parse((PACKAGE_DIR / relative_path).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == name:
                    return item
    raise AssertionError(f"{relative_path}: no {class_name}.{name}")


def test_no_notification_layer_under_src():
    """No listener registry, notifier or note channel is defined or
    called anywhere in the package."""
    offenders = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if PUSH_LAYER.fullmatch(name):
                offenders.append(
                    (path.relative_to(PACKAGE_DIR).as_posix(), name)
                )
    assert offenders == []


def test_charge_bodies_make_no_accounting_call():
    """``charge`` / ``charge_log_read`` call the sampler (or the cache
    lookup that picks it), ``dict.get`` and one ``append``, onto the
    cost trace — nothing else."""
    allowed = {
        "charge": {"<sampler>", "append", "get"},
        "charge_log_read": {"_lr_hit", "_lr_miss", "lookup", "append",
                            "get"},
    }
    for name, expected in allowed.items():
        body = _function("runtime/services.py", "ServiceBackend", name)
        called = set()
        appends = []
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called.add(func.attr)
                if func.attr == "append":
                    appends.append(ast.unparse(func.value))
            elif isinstance(func, ast.Name):
                called.add(func.id)
            else:
                # ``self._samplers[kind]()``: the per-kind sampler.
                assert isinstance(func, ast.Subscript)
                assert func.value.attr == "_samplers"
                called.add("<sampler>")
        assert called == expected, name
        assert appends == ["trace.entries"], name


def test_substrate_mutators_loop_over_no_callables():
    """``_install`` / ``_replace`` update counters; they call nothing
    they were handed (a loop whose body calls its own loop variable is
    a listener fan-out)."""
    for path, class_name, name in (
        ("storageplane/sharded_log.py", "ShardedLog", "_install"),
        ("store/kv.py", "KVStore", "_replace"),
    ):
        body = _function(path, class_name, name)
        for loop in ast.walk(body):
            if not isinstance(loop, ast.For):
                continue
            targets = {n.id for n in ast.walk(loop.target)
                       if isinstance(n, ast.Name)}
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    assert not (isinstance(node.func, ast.Name)
                                and node.func.id in targets), (path, name)
