"""Shared fixtures for the test suite."""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro import LocalRuntime, SystemConfig
from repro.config import ClusterConfig, FailureConfig, GCConfig

PROTOCOLS = ("boki", "halfmoon-read", "halfmoon-write")
ALL_SYSTEMS = ("unsafe",) + PROTOCOLS


def package_modules():
    """``(path relative to src/repro, parsed module)`` of every source
    file — what the tooling guards walk."""
    package_dir = pathlib.Path(repro.__file__).parent
    for path in sorted(package_dir.rglob("*.py")):
        yield (path.relative_to(package_dir).as_posix(),
               ast.parse(path.read_text()))


def call_name(call):
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(
        func, "attr", None)


@pytest.fixture
def config() -> SystemConfig:
    return SystemConfig(seed=1234)


@pytest.fixture(params=PROTOCOLS)
def protocol_name(request) -> str:
    """Parametrises a test over the three logged protocols."""
    return request.param


def make_runtime(protocol: str = "halfmoon-read", seed: int = 1234,
                 **kwargs) -> LocalRuntime:
    return LocalRuntime(SystemConfig(seed=seed), protocol=protocol,
                        **kwargs)


def deterministic_config(seed: int = 1234) -> SystemConfig:
    """A config whose latency distributions are degenerate (p99 == median),
    so every service call costs exactly its median — useful for tests that
    compare latencies structurally."""
    from repro.config import LatencyConfig

    lat = LatencyConfig()
    deterministic = LatencyConfig(
        log_append_p99_ms=lat.log_append_median_ms,
        db_read_p99_ms=lat.db_read_median_ms,
        db_write_p99_ms=lat.db_write_median_ms,
        log_read_cached_p99_ms=lat.log_read_cached_median_ms,
        log_read_miss_p99_ms=lat.log_read_miss_median_ms,
        invoke_overhead_p99_ms=lat.invoke_overhead_median_ms,
    )
    return SystemConfig(seed=seed, latency=deterministic)


@pytest.fixture
def runtime(protocol_name) -> LocalRuntime:
    return make_runtime(protocol_name)
