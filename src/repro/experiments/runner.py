"""Shared experiment machinery: configuration, trace cache, method bank.

The paper evaluates three methods side by side — BMBP, log-normal without
history trimming ("logn NoTrim"), and log-normal with BMBP's trimming
("logn Trim") — over every machine/queue trace, always predicting the 0.95
quantile at 95% confidence with 300-second refit epochs and a 10% training
prefix.  This module wires those defaults together and caches generated
traces and replay results so that Table 3 and Table 4 (which share runs),
the CLI, the tests, and the benchmarks never recompute the same replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bank import make_bank
from repro.core.predictor import QuantilePredictor
from repro.simulator.replay import ReplayConfig
from repro.simulator.results import ReplayResult
from repro.workloads.generator import GeneratorConfig, generate_queue_trace
from repro.workloads.spec import QUEUE_SPECS, QueueSpec, spec_for
from repro.workloads.trace import Trace

__all__ = [
    "METHOD_ORDER",
    "ExperimentConfig",
    "cached_queue_result",
    "make_predictors",
    "run_queue",
    "store_queue_result",
    "table3_specs",
    "trace_for",
]

#: Column order used by every method-comparison table.
METHOD_ORDER: Tuple[str, ...] = ("bmbp", "logn-notrim", "logn-trim")


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments; defaults reproduce the paper.

    ``scale`` multiplies every queue's Table 1 job count (``min_jobs``
    floors it); the by-size tables pro-rate their per-cell minimum by the
    resulting effective scale (see ``parallel.bin_cells_work``).
    """

    scale: float = 0.35
    seed: int = 7
    quantile: float = 0.95
    confidence: float = 0.95
    epoch: float = 300.0
    training_fraction: float = 0.10
    min_jobs: int = 1500

    @property
    def generator(self) -> GeneratorConfig:
        return GeneratorConfig(
            scale=self.scale, seed=self.seed, min_jobs=self.min_jobs
        )

    @property
    def replay(self) -> ReplayConfig:
        return ReplayConfig(
            epoch=self.epoch, training_fraction=self.training_fraction
        )


# ----------------------------------------------------------------- caching

_TRACE_CACHE: Dict[Tuple, Trace] = {}
_RESULT_CACHE: Dict[Tuple, Dict[str, ReplayResult]] = {}


def clear_caches() -> None:
    """Drop all cached traces and replay results (mainly for tests)."""
    _TRACE_CACHE.clear()
    _RESULT_CACHE.clear()


def trace_for(spec: QueueSpec, config: ExperimentConfig) -> Trace:
    """The synthetic trace for one queue, cached per (seed, scale)."""
    key = (spec.key, config.seed, config.scale, config.min_jobs)
    if key not in _TRACE_CACHE:
        _TRACE_CACHE[key] = generate_queue_trace(spec, config.generator)
    return _TRACE_CACHE[key]


def make_predictors(config: ExperimentConfig) -> Dict[str, QuantilePredictor]:
    """Fresh instances of the paper's three methods, in ``METHOD_ORDER``."""
    return make_bank(METHOD_ORDER, config.quantile, config.confidence)


def cached_queue_result(
    machine: str, queue: str, config: ExperimentConfig
) -> Optional[Dict[str, ReplayResult]]:
    """The in-process cached result for one queue, if any."""
    return _RESULT_CACHE.get((machine, queue, config))


def store_queue_result(
    machine: str,
    queue: str,
    config: ExperimentConfig,
    results: Dict[str, ReplayResult],
) -> None:
    """Record one queue's replay results in the in-process cache."""
    _RESULT_CACHE[(machine, queue, config)] = results


def run_queue(
    machine: str,
    queue: str,
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, ReplayResult]:
    """Replay one queue against the three methods (cached).

    Backed by the in-process cache, the persistent on-disk cache, and —
    for batch callers going through
    :func:`repro.experiments.parallel.run_queue_batch` — the worker pool.
    """
    config = config or ExperimentConfig()
    cached = cached_queue_result(machine, queue, config)
    if cached is None:
        # Imported lazily: parallel.py imports this module at load time.
        from repro.experiments.parallel import run_queue_batch

        cached = run_queue_batch([spec_for(machine, queue)], config)[0]
    return cached


def table3_specs() -> List[QueueSpec]:
    """The 32 machine/queue rows of Tables 3 and 4, in the paper's order."""
    return [spec for spec in QUEUE_SPECS if spec.in_table3]
