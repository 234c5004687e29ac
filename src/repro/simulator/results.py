"""Result containers for trace replays.

The paper reports two figures of merit per machine/queue/method:

* the **fraction of correct predictions** — correct means the observed wait
  fell on the bounded side of the quoted bound (Tables 3, 5, 6, 7), and
* the **median ratio of actual to predicted wait** — an accuracy/tightness
  measure (Table 4; values near 1 are tight, values near 0 wildly
  conservative).

``ReplayResult`` carries both, plus the per-refit bound time series used for
the figures and optional per-job records used by tests and the Table 8
day-in-the-life view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["JobRecord", "ReplayResult"]


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one evaluated job under one predictor."""

    submit_time: float
    predicted: Optional[float]
    actual: float
    correct: Optional[bool]
    procs: int = 1


@dataclass
class ReplayResult:
    """Aggregated outcome of replaying one trace against one predictor."""

    trace_name: str
    predictor_name: str
    quantile: float
    confidence: float
    n_evaluated: int = 0
    n_correct: int = 0
    n_skipped: int = 0
    ratios: List[float] = field(default_factory=list)
    series_times: List[float] = field(default_factory=list)
    series_values: List[float] = field(default_factory=list)
    jobs: List[JobRecord] = field(default_factory=list)
    change_points: int = 0
    miss_threshold: Optional[int] = None

    @property
    def fraction_correct(self) -> float:
        """Fraction of evaluated jobs whose bound held (the Table 3 metric)."""
        if self.n_evaluated == 0:
            return float("nan")
        return self.n_correct / self.n_evaluated

    @property
    def median_ratio(self) -> float:
        """Median of actual/predicted over evaluated jobs (the Table 4 metric)."""
        ratios = np.asarray(self.ratios, dtype=float)
        finite = ratios[np.isfinite(ratios)]
        if not finite.size:
            return float("nan")
        return float(np.median(finite))

    @property
    def correct(self) -> bool:
        """Whether the method was *correct* in the paper's sense: the
        proportion of correct predictions reached the predicted quantile."""
        return self.fraction_correct >= self.quantile

    @property
    def series(self) -> Tuple[np.ndarray, np.ndarray]:
        """(times, bounds) arrays of the recorded prediction series."""
        return (
            np.asarray(self.series_times, dtype=float),
            np.asarray(self.series_values, dtype=float),
        )

    def record_outcome(self, ratio: float, correct: bool) -> None:
        self.n_evaluated += 1
        if correct:
            self.n_correct += 1
        self.ratios.append(ratio)

    def record_outcomes(self, ratios: np.ndarray, correct: np.ndarray) -> None:
        """Record a whole batch of scored jobs in one vectorized pass.

        ``ratios`` and ``correct`` are parallel arrays (actual/predicted
        ratio and bound-held flag per job).  Equivalent to calling
        :meth:`record_outcome` per element, which is how the batched replay
        engine commits a segment's outcomes without a per-job Python loop.
        """
        ratios = np.asarray(ratios, dtype=float)
        correct = np.asarray(correct, dtype=bool)
        if ratios.shape != correct.shape:
            raise ValueError(
                f"ratios {ratios.shape} and correct {correct.shape} differ"
            )
        self.n_evaluated += int(ratios.size)
        self.n_correct += int(np.count_nonzero(correct))
        self.ratios.extend(ratios.tolist())

    def __repr__(self) -> str:  # concise: results get printed in bulk
        frac = self.fraction_correct
        med = self.median_ratio
        return (
            f"ReplayResult({self.trace_name}, {self.predictor_name}, "
            f"n={self.n_evaluated}, correct={frac:.3f}, median_ratio={med:.3g})"
        )
