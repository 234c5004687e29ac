"""Shared benchmark configuration.

Every benchmark regenerates one table or figure of the paper at the default
experiment scale and *asserts the paper's qualitative shape* on the result —
who wins, what fails, where the crossovers fall — so a benchmark run is also
a reproduction check.  Timings use one round (the workloads are multi-second
replays, not microbenchmarks); the in-process and on-disk caches are
bypassed in setup so every benchmark measures real work.

Every benchmark is marked ``slow`` and excluded from the default
``pytest`` run.  Run the full set with ``pytest benchmarks -m slow`` (or ``-m ''``).
"""

from __future__ import annotations

import pytest

from repro import runtime
from repro.experiments.runner import ExperimentConfig, clear_caches

def pytest_collection_modifyitems(items):
    for item in items:
        item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    """The default paper-reproduction configuration."""
    return ExperimentConfig()


@pytest.fixture
def fresh(tmp_path, monkeypatch):
    """Clear experiment caches and isolate the persistent replay cache.

    Benchmarks must time real replays: the in-process result cache is
    cleared and the on-disk cache is pointed at a private empty directory
    so a warm user cache cannot short-circuit the measured work.
    """
    monkeypatch.setenv("BMBP_CACHE_DIR", str(tmp_path / "bench-cache"))
    monkeypatch.delenv("BMBP_JOBS", raising=False)
    runtime.reset_configuration()
    clear_caches()
    yield clear_caches
    clear_caches()
    runtime.reset_configuration()


def run_once(benchmark, fn, *args):
    """Run ``fn`` exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, rounds=1, iterations=1, warmup_rounds=0)
