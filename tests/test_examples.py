"""The shipped examples run: each is a reader of the library surface.

Six run end to end as their own processes, from an empty working
directory, against this checkout's ``src``.  ``dynamic_switching``
(~6 s) and ``reproduce_paper`` (rewrites EXPERIMENTS.md) are only
compiled.
"""

import os
import pathlib
import py_compile
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ROOT / "examples"


@pytest.mark.parametrize("name", [
    "quickstart", "atomic_transfers", "per_object_protocols",
    "retwis_feed", "travel_booking", "protocol_advisor",
])
def test_example_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{name}.py")], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("name", ["dynamic_switching", "reproduce_paper"])
def test_example_compiles(name, tmp_path):
    py_compile.compile(str(EXAMPLES / f"{name}.py"),
                       cfile=str(tmp_path / f"{name}.pyc"), doraise=True)
