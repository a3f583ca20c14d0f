"""The charge path buffers; ``ServiceBackend._fold`` drains the buffer
into the ``op_latency`` recorders when they are read (or the buffer
fills).  Same samples, same order, same recorders: every summary below
is a literal captured on the commit before the fold existed and must
not move by an ulp.  A tooling guard keeps the push-style notification
layer from growing back.
"""

import ast
import pathlib
import re

import numpy as np

import repro
from repro import LocalRuntime, SystemConfig
from repro.harness import run_shard_point, shard_sweep_config
from repro.runtime.services import _FOLD_THRESHOLD
from repro.workloads import MixedRatioWorkload

# fmt: off
DES_COUNTERS = {'compute': 410,
 'db_cond_write': 2035,
 'db_read': 2065,
 'log_append': 4100,
 'log_append_control': 410,
 'log_append_overlapped': 2035,
 'log_read': 410}
DES_OP_LATENCY = {'op_latency{kind=compute}': (410, 0.25, 0.25, 0.25),
 'op_latency{kind=db_cond_write}': (2035,
                                    3.1829305566832033,
                                    2.966688687264741,
                                    7.289933216174176),
 'op_latency{kind=db_read}': (2065,
                              2.0426487841609675,
                              1.9076083666558723,
                              4.641023652307062),
 'op_latency{kind=log_append_control}': (410,
                                         0.29986722558520695,
                                         0.2905031128280773,
                                         0.5140129683929877),
 'op_latency{kind=log_append_overlapped}': (2035,
                                            0.6703581982458446,
                                            0.6566949554811643,
                                            1.0937233213745212),
 'op_latency{kind=log_append}': (4100,
                                 1.203952302796636,
                                 1.1803334829339265,
                                 1.8884282917566895),
 'op_latency{kind=log_read}': (410,
                               0.15662138379183943,
                               0.10999369371072715,
                               0.8307853102001177)}
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
DIRECT_OP_LATENCY = {'op_latency{kind=compute}': (40, 0.25, 0.25, 0.25),
 'op_latency{kind=db_cond_write}': (111,
                                    3.100127528531308,
                                    2.861607177358342,
                                    6.076548759041374),
 'op_latency{kind=db_read}': (129,
                              2.231015489299454,
                              2.0102953578139506,
                              7.637235470598256),
 'op_latency{kind=log_append_control}': (40,
                                         0.3703001888329592,
                                         0.30820270227679636,
                                         1.335989090063204),
 'op_latency{kind=log_append}': (129,
                                 1.2038710260857228,
                                 1.162822724667695,
                                 1.8200935230163466),
 'op_latency{kind=log_read}': (40,
                               0.16201905951190929,
                               0.09996422194474253,
                               1.025075780686713),
 'op_latency{kind=retry_backoff}': (23,
                                    0.5765014391526366,
                                    0.556917677524739,
                                    1.032707770579942),
 'op_latency{kind=service_error}': (14, 1.0, 1.0, 1.0),
 'op_latency{kind=service_timeout}': (9, 10.0, 10.0, 10.0)}

# fmt: on


def summaries(snapshot):
    return {
        key: (entry["count"], entry["mean_ms"], entry["median_ms"],
              entry["p99_ms"])
        for key, entry in snapshot.items() if key.startswith("op_latency")
    }


def test_des_cell_op_latency_pinned_across_fold_thresholds():
    """A 2x2 sharded DES cell long enough to fill the buffer twice
    mid-run; the snapshot folds the tail."""
    result = run_shard_point(
        2, 200.0, duration_ms=2_000.0, warmup_ms=200.0, num_keys=200,
        config=SystemConfig(seed=29),
    )
    assert sum(result.counters.values()) > 2 * _FOLD_THRESHOLD
    assert result.counters == DES_COUNTERS
    assert summaries(result.metrics) == DES_OP_LATENCY
    assert (result.completed, result.median_ms, result.p99_ms,
            result.mean_ms, result.avg_log_bytes,
            result.avg_db_bytes) == DES_RESULT


def test_direct_mode_fold_is_triggered_by_the_property_alone():
    """Direct mode under infrastructure faults (``charge_raw`` kinds
    included), too short to fill the buffer: reading ``op_latency`` is
    the only thing that folds."""
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
    backend = runtime.backend
    assert backend.counters.as_dict() == DIRECT_COUNTERS
    charged = sum(DIRECT_COUNTERS[kind] for kind in DIRECT_COUNTERS
                  if kind != "service_retries")
    assert charged < _FOLD_THRESHOLD
    by_kind = {
        f"op_latency{{kind={kind}}}": (recorder.count, *recorder.stats())
        for kind, recorder in backend.op_latency.items()
    }
    assert by_kind == DIRECT_OP_LATENCY
    assert "retry_backoff" in backend.op_latency
    assert backend.op_latency.get("no_such_kind") is None
    assert summaries(backend.metrics.snapshot()) == DIRECT_OP_LATENCY
    # Charges after a read land in the same recorders on the next one.
    runtime.invoke(request.func_name, request.input)
    assert (sum(r.count for r in backend.op_latency.values())
            > sum(value[0] for value in by_kind.values()))


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
    lookup that picks it), ``list.append``, ``dict.get``, ``len`` and
    the threshold-guarded ``_fold`` — nothing else."""
    allowed = {
        "charge": {"<sampler>", "append", "get", "len", "_fold"},
        "charge_log_read": {"_lr_hit", "_lr_miss", "lookup", "append",
                            "get", "len", "_fold"},
    }
    for name, expected in allowed.items():
        body = _function("runtime/services.py", "ServiceBackend", name)
        called = set()
        for node in ast.walk(body):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                called.add(func.attr)
            elif isinstance(func, ast.Name):
                called.add(func.id)
            else:
                # ``self._samplers[kind]()``: the per-kind sampler.
                assert isinstance(func, ast.Subscript)
                assert func.value.attr == "_samplers"
                called.add("<sampler>")
        assert called == expected, name
        # ``_fold`` only runs under the buffer-size test.
        guards = [
            node for node in ast.walk(body)
            if isinstance(node, ast.If) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "attr", None) == "_fold"
                for call in ast.walk(node)
            )
        ]
        assert len(guards) == 1
        test = guards[0].test
        assert isinstance(test, ast.Compare)
        assert test.left.func.id == "len"
        assert test.comparators[0].id == "_FOLD_THRESHOLD"


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
