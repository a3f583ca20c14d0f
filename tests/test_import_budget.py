"""The import budget, counted in modules (deterministic), not seconds.

Every package under ``repro`` is a table resolved on first attribute
access (``repro/_lazy.py``), so an entry point pays for what it names.
Each budget case runs in a fresh interpreter — ``sys.modules`` here
already holds whatever the rest of the suite imported — and prints the
modules it ended up with.  The child starts from the start-up set of a
clean interpreter: ``-S`` with ``import site`` as its first statement
leaves the same 32 modules as a fresh venv, and the site directories
reach it on ``PYTHONPATH``, so no ``.pth`` import line, ``sitecustomize``
or ``usercustomize`` of the machine is booked to an entry point.  The
last cases pin what only worked as a side effect of importing
everything: the compute backend table and the live worker's pre-fork
image.
"""

import ast
import importlib
import json
import os
import pathlib
import site
import subprocess
import sys

import pytest

import repro
from tests.conftest import package_modules

PACKAGE_DIR = pathlib.Path(repro.__file__).parent
PACKAGES = ["repro"] + sorted(
    "repro." + path.parent.relative_to(PACKAGE_DIR).as_posix()
    for path in PACKAGE_DIR.glob("*/__init__.py")
)

#: What the benchmark's in-process reps import before their first use.
REP_DIRECT_CHAOS = ("from repro import SystemConfig; "
                    "from repro.harness import run_chaos_point")
REP_SIM_APPS = ("from repro import SystemConfig; "
                "from repro.harness import APP_FACTORIES, SimPlatform")


#: ``src``, then the site directories that ``-S`` leaves off ``sys.path``.
_CHILD_PATH = [str(PACKAGE_DIR.parent), *site.getsitepackages()]
if site.ENABLE_USER_SITE:
    _CHILD_PATH.append(site.getusersitepackages())


def _fresh(code, *argv):
    """Run ``code`` in a new interpreter started without the site hooks;
    its last stdout line, parsed."""
    done = subprocess.run(
        [sys.executable, "-S", "-c", f"import site\n{code}", *argv],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(_CHILD_PATH)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _modules_after(code):
    return set(_fresh(
        f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    ))


def _loaded(modules, *names):
    """The members of ``names`` (a package counts with its submodules)
    that ``modules`` holds."""
    return sorted(
        module for module in modules
        if any(module == name or module.startswith(name + ".")
               for name in names)
    )


# -- (1) a package costs its table -------------------------------------------


def test_import_repro_loads_neither_numpy_nor_the_system():
    modules = _modules_after("import repro")
    assert _loaded(modules, "numpy") == []
    assert len(_loaded(modules, "repro")) <= 3


def test_the_package_names_load_no_gateway_and_no_platform():
    modules = _modules_after("import repro.harness, repro.compute")
    assert _loaded(
        modules, "asyncio", "multiprocessing", "concurrent.futures", "ssl",
        "repro.compute.gateway", "repro.harness.platform",
    ) == []


# -- (2) a sim rep loads no live plane and no process pool -------------------


@pytest.mark.parametrize("imports", [REP_DIRECT_CHAOS, REP_SIM_APPS])
def test_sim_rep_import_set(imports):
    modules = _modules_after(imports)
    assert _loaded(
        modules, "asyncio", "ssl", "multiprocessing",
        "concurrent.futures.process", "subprocess",
        "repro.compute.gateway", "repro.harness.live_exp",
    ) == []
    assert len(modules) <= 265  # 372 when every package imported eagerly


def test_a_cli_command_imports_its_own_driver_only():
    modules = _modules_after(
        "from repro.cli import main\n"
        "assert main(['table1', '--samples', '50']) == 0"
    )
    assert "repro.harness.micro" in modules
    assert _loaded(modules, "repro.compute.gateway",
                   "repro.harness.storagechaos") == []


# -- (3) the pre-fork image: named, complete, and free of the harness --------

_IMAGE_SCRIPT = """
import importlib, json, sys, time
from repro.compute import pool
for name in (*pool.PREFORK_IMAGE, sys.argv[1]):
    importlib.import_module(name)
image = set(sys.modules)

# What worker_main builds, over the real plane instead of the RPC proxy.
from repro.compute.worker import (BernoulliCrashes, LocalRuntime,
                                  ServiceBackend, WorkloadSpec)
from repro.config import SystemConfig
config = SystemConfig(seed=3).with_storage_plane(
    log_shards=2, kv_partitions=2)
backend = ServiceBackend(config)
runtime = LocalRuntime(config, protocol="boki", backend=backend)
runtime.compute_sleep_fn = lambda ms: time.sleep(0.0)
runtime.crash_policy = BernoulliCrashes(
    0.1, backend.rng.stream("live-crashes"))
workload = WorkloadSpec(sys.argv[1], "CounterWorkload",
                        dict(num_keys=2, compute_ms=0.0)).build()
workload.register(runtime)
workload.populate(runtime)
assert runtime.invoke("bump", "c0").output == 1
print(json.dumps({"image": sorted(image),
                  "after_fork": sorted(set(sys.modules) - image)}))
"""


def test_a_worker_imports_nothing_after_the_fork():
    report = _fresh(_IMAGE_SCRIPT, "repro.workloads.counter")
    # At the parent commit: numpy.random and the 14 modules it pulls in,
    # ~12 ms of CPU per worker and per takeover replacement.
    assert report["after_fork"] == []
    assert _loaded(report["image"], "repro.harness") == []
    assert "numpy.random" in report["image"]


def test_worker_module_has_no_function_level_import():
    tree = dict(package_modules())["compute/worker.py"]
    nested = [
        node.lineno
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert nested == []


# -- (4) same names, same objects, resolved later ----------------------------


def _export_table(package):
    """``{name: submodule}`` from the ``lazy_exports`` call of the
    package's ``__init__.py``."""
    tree = ast.parse(pathlib.Path(package.__file__).read_text())
    call, = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "lazy_exports"]
    return {name: submodule
            for submodule, names in ast.literal_eval(call.args[1]).items()
            for name in names}


@pytest.mark.parametrize("name", PACKAGES)
def test_package_surface_is_its_table(name):
    package = importlib.import_module(name)
    table = _export_table(package)
    assert set(table) <= set(package.__all__)
    assert set(package.__all__) <= set(dir(package))
    for symbol in package.__all__:
        value = getattr(package, symbol)
        if symbol in table:  # else defined in the __init__ itself
            origin = importlib.import_module(table[symbol], name)
            assert value is getattr(origin, symbol), symbol
            assert vars(package)[symbol] is value  # cached: no second hook
    with pytest.raises(AttributeError, match=name.replace(".", r"\.")):
        package.no_such_export


def test_star_import_still_binds_every_export():
    namespace = {}
    exec("from repro.compute import *", namespace)
    assert set(importlib.import_module("repro.compute").__all__) <= set(
        namespace)


def test_no_package_init_imports_a_submodule():
    eager = [
        (path, node.lineno)
        for path, tree in package_modules()
        if path.endswith("__init__.py")
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert eager == []


# -- the compute backends are a table, not an import side effect -------------

_BACKEND_SCRIPT = """
import json, sys
from repro.compute import build_compute_plane
from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.workloads.counter import CounterWorkload

report = {"preloaded": sorted(
    m for m in ("repro.compute.gateway", "repro.harness.platform")
    if m in sys.modules)}
kwargs = dict(num_keys=8, compute_ms=0.0)
sim = build_compute_plane("sim", CounterWorkload(**kwargs), "boki")
report["sim"] = type(sim).__name__
report["gateway_after_sim"] = "repro.compute.gateway" in sys.modules
from repro.compute import WorkloadSpec
live = build_compute_plane(
    "localhost", CounterWorkload(**kwargs), "boki",
    config=SystemConfig(seed=5),
    workload_spec=WorkloadSpec("repro.workloads.counter", "CounterWorkload",
                               kwargs),
    num_workers=1, requests=2,
)
live.close()
report["localhost"] = type(live).__name__
try:
    build_compute_plane("lambda", CounterWorkload(**kwargs), "boki")
except ConfigError as exc:
    report["unknown"] = str(exc)
print(json.dumps(report))
"""


def test_backends_resolve_without_their_modules_imported_first():
    assert _fresh(_BACKEND_SCRIPT) == {
        "preloaded": [],
        "sim": "SimPlatform",
        "gateway_after_sim": False,
        "localhost": "LocalhostComputePlane",
        "unknown": ("unknown compute backend 'lambda'; "
                    "available: localhost, sim"),
    }
