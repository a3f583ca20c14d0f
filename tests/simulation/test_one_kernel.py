"""Tooling guard: there is one DES kernel and nothing selects another.

``repro.simulation`` exports the classes of ``kernel.py`` themselves —
no import-time rebinding, no environment knob — and ``select_kernel``
survives only as the shim ``benchmarks/e2e/run.py`` calls for its
``sim_kernel`` stamp.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro.simulation
from repro.errors import ConfigError
from repro.harness.failover import CounterWorkload
from repro.harness.platform import SimPlatform
from repro.simulation import kernel

KERNEL_NAMES = ("Simulator", "Event", "Timeout", "Process", "Interrupt")
SRC_DIR = pathlib.Path(repro.__file__).parent.parent


def test_package_exports_are_the_kernel_classes():
    for name in KERNEL_NAMES:
        assert getattr(repro.simulation, name) is getattr(kernel, name)
    platform = SimPlatform(CounterWorkload(num_keys=4), "boki")
    assert platform.sim.__class__ is kernel.Simulator


def test_select_kernel_is_a_shim_for_the_one_kernel():
    assert repro.simulation.select_kernel("pure") == "pure"
    for name in ("compiled", "auto"):
        with pytest.raises(ConfigError):
            repro.simulation.select_kernel(name)


def test_environment_variable_is_not_read():
    probe = (
        "import repro.simulation as s, repro.simulation.kernel as k; "
        f"assert all(getattr(s, n) is getattr(k, n) for n in {KERNEL_NAMES})"
    )
    env = dict(os.environ, REPRO_SIM_KERNEL="compiled",
               PYTHONPATH=str(SRC_DIR))
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_no_c_source_and_no_kernel_knob_under_src():
    for path in sorted(SRC_DIR.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        assert path.suffix != ".c", path
        assert b"REPRO_SIM_KERNEL" not in path.read_bytes(), path
