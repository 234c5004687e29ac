"""Quantile/confidence sensitivity (Section 5's verification sweep).

The paper: "We examine several different combinations of quantile and
confidence level as part of this verification."  This experiment runs BMBP
over a grid of (quantile, confidence) pairs on three representative queues
— a well-behaved one, a strongly nonstationary one, and a heavy-tailed one
— and reports the achieved coverage against each target.

The property under test: coverage tracks the *quantile* (the bound is an
upper bound on the q-quantile, so ~q of the predictions should hold), with
the confidence level controlling how much above q it safely sits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bmbp import BMBPPredictor
from repro.experiments.parallel import run_per_queue
from repro.experiments.report import format_cell, render_table
from repro.experiments.runner import ExperimentConfig, trace_for
from repro.simulator.replay import replay
from repro.simulator.results import ReplayResult
from repro.workloads.spec import spec_for

__all__ = ["SensitivityRow", "run_sensitivity"]

#: (machine, queue) per behavioural category.
SENSITIVITY_QUEUES: Tuple[Tuple[str, str], ...] = (
    ("llnl", "all"),        # well-behaved
    ("datastar", "normal"),  # strongly nonstationary
    ("datastar", "express"),  # heavy conditional tail
)

QUANTILE_GRID: Tuple[float, ...] = (0.5, 0.75, 0.9, 0.95)
CONFIDENCE_GRID: Tuple[float, ...] = (0.8, 0.95)


@dataclass(frozen=True)
class SensitivityRow:
    """Coverage of one (queue, quantile, confidence) combination."""

    machine: str
    queue: str
    quantile: float
    confidence: float
    fraction_correct: float
    median_ratio: float
    n_evaluated: int

    @property
    def correct(self) -> bool:
        return self.fraction_correct >= self.quantile


def _grid_work(
    machine: str, queue: str, config: ExperimentConfig
) -> Dict[str, ReplayResult]:
    """Replay one queue against the full quantile/confidence grid.

    Module-level so the parallel engine can ship it to worker processes;
    the trace is regenerated worker-side from the seeded generator.
    """
    trace = trace_for(spec_for(machine, queue), config)
    return replay(trace, _grid_bank(), config.replay)


def _grid_bank() -> Dict[str, BMBPPredictor]:
    return {
        f"q{quantile}/c{confidence}": BMBPPredictor(
            quantile=quantile, confidence=confidence
        )
        for quantile in QUANTILE_GRID
        for confidence in CONFIDENCE_GRID
    }


def run_sensitivity(
    config: Optional[ExperimentConfig] = None,
) -> List[SensitivityRow]:
    """Replay the grid; one predictor bank per queue, shared event stream.

    The three queues fan out over the parallel engine and their grid
    results persist in the replay cache.
    """
    config = config or ExperimentConfig()
    specs = [spec_for(*queue) for queue in SENSITIVITY_QUEUES]
    results_by_queue = run_per_queue(_grid_work, specs, config, _grid_bank())
    rows: List[SensitivityRow] = []
    for (machine, queue), results in zip(SENSITIVITY_QUEUES, results_by_queue):
        for quantile in QUANTILE_GRID:
            for confidence in CONFIDENCE_GRID:
                result = results[f"q{quantile}/c{confidence}"]
                rows.append(
                    SensitivityRow(
                        machine=machine,
                        queue=queue,
                        quantile=quantile,
                        confidence=confidence,
                        fraction_correct=result.fraction_correct,
                        median_ratio=result.median_ratio,
                        n_evaluated=result.n_evaluated,
                    )
                )
    return rows


def render(rows: List[SensitivityRow]) -> str:
    headers = ["queue", "quantile", "confidence", "coverage", "median ratio"]
    body = [
        [
            f"{row.machine}/{row.queue}",
            f"{row.quantile:.2f}",
            f"{row.confidence:.2f}",
            format_cell(row.fraction_correct, failed=not row.correct, precision=3),
            f"{row.median_ratio:.3g}",
        ]
        for row in rows
    ]
    title = (
        "Sensitivity — BMBP coverage across quantile/confidence "
        "combinations (* = below the target quantile)"
    )
    return render_table(headers, body, title=title)


def main(config: Optional[ExperimentConfig] = None) -> str:
    return render(run_sensitivity(config))
