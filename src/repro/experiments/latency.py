"""Prediction latency (the paper's Section 5 timing claim).

The paper reports an average of 8 ms per prediction on a 1 GHz Pentium III
across ~1.2 million predictions — fast enough for interactive use.  We time
the same cycle (observe a wait, refit, quote a bound) for BMBP and the
log-normal methods on modern hardware; the claim under test is "fast enough
to deliver timely forecasts", not the absolute figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.predictor import QuantilePredictor
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentConfig, make_predictors

__all__ = ["LatencyRow", "run_latency"]

#: The paper's reported mean latency, for the comparison column.
PAPER_LATENCY_MS = 8.0


@dataclass(frozen=True)
class LatencyRow:
    method: str
    n_cycles: int
    mean_us: float

    @property
    def mean_ms(self) -> float:
        return self.mean_us / 1000.0


def _time_predictor(predictor: QuantilePredictor, waits: np.ndarray) -> float:
    """Mean microseconds per observe+refit+predict cycle."""
    start = time.perf_counter()
    for wait in waits:
        predictor.observe(float(wait), predicted=predictor.predict())
        predictor.refit()
        predictor.predict()
    elapsed = time.perf_counter() - start
    return elapsed / waits.size * 1e6


def run_latency(
    config: Optional[ExperimentConfig] = None,
    n_cycles: int = 20000,
) -> List[LatencyRow]:
    """Time each method's full prediction cycle on a heavy-tailed stream."""
    config = config or ExperimentConfig()
    rng = np.random.default_rng(config.seed)
    waits = rng.lognormal(mean=6.0, sigma=2.0, size=n_cycles)
    rows = []
    for name, predictor in make_predictors(config).items():
        mean_us = _time_predictor(predictor, waits)
        rows.append(LatencyRow(method=name, n_cycles=n_cycles, mean_us=mean_us))
    return rows


def render(rows: List[LatencyRow]) -> str:
    headers = ["method", "cycles", "mean per prediction", "paper (2006 hw)"]
    body = [
        [
            row.method,
            str(row.n_cycles),
            f"{row.mean_us:.1f} us",
            f"{PAPER_LATENCY_MS:.0f} ms",
        ]
        for row in rows
    ]
    return render_table(
        headers, body, title="Prediction latency (observe + refit + predict)"
    )


def main(config: Optional[ExperimentConfig] = None) -> str:
    return render(run_latency(config))
