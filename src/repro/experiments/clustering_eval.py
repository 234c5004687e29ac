"""Grouping-strategy evaluation: population vs fixed bins vs clusters.

Section 6.2 of the paper subdivides jobs by fixed, human-chosen processor
ranges; the QBETS follow-on learns the grouping.  This experiment compares
three strategies on size-sensitive queues:

* **population** — one predictor for the whole queue;
* **fixed-bins** — one predictor per TACC range (the paper's Tables 5-7);
* **clustered** — one predictor per learned attribute cluster
  (:class:`repro.core.clustering.ClusteredPredictor`).

All three follow the same sequential protocol (train on the first 10%,
then predict-before-observe for every job).  The question is accuracy at
equal correctness: grouping should tighten the bound a small job receives
without breaking anyone's coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bmbp import BMBPPredictor
from repro.core.clustering import ClusteredPredictor
from repro.experiments.parallel import run_per_queue
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentConfig, trace_for
from repro.workloads.bins import bin_label, bin_of
from repro.workloads.spec import spec_for

__all__ = ["ClusteringRow", "run_clustering_eval"]

#: Queues with several populated processor bins (size-sensitive workloads).
CLUSTERING_QUEUES: Tuple[Tuple[str, str], ...] = (
    ("datastar", "normal"),
    ("tacc2", "normal"),
)

STRATEGIES = ("population", "fixed-bins", "clustered")


@dataclass(frozen=True)
class ClusteringRow:
    """One (queue, strategy) outcome."""

    machine: str
    queue: str
    strategy: str
    fraction_correct: float
    median_ratio: float
    n_evaluated: int
    n_groups: int

    @property
    def correct(self) -> bool:
        return self.fraction_correct >= 0.95


class _PopulationStrategy:
    n_groups = 1

    def __init__(self, config: ExperimentConfig):
        self._predictor = BMBPPredictor(
            quantile=config.quantile, confidence=config.confidence
        )

    def train(self, procs, waits):
        for wait in waits:
            self._predictor.observe(wait)
        self._predictor.finish_training()

    def predict(self, procs: int) -> Optional[float]:
        return self._predictor.predict()

    def observe(self, procs: int, wait: float) -> None:
        self._predictor.observe(wait, predicted=self._predictor.predict())
        self._predictor.refit_if_stale()


class _FixedBinStrategy:
    def __init__(self, config: ExperimentConfig):
        self._config = config
        self._members: Dict[str, BMBPPredictor] = {}

    @property
    def n_groups(self) -> int:
        return len(self._members)

    def _member(self, procs: int) -> BMBPPredictor:
        label = bin_label(bin_of(procs))
        if label not in self._members:
            self._members[label] = BMBPPredictor(
                quantile=self._config.quantile, confidence=self._config.confidence
            )
        return self._members[label]

    def train(self, procs, waits):
        for p, wait in zip(procs, waits):
            self._member(int(p)).observe(wait)
        for member in self._members.values():
            member.finish_training()

    def predict(self, procs: int) -> Optional[float]:
        return self._member(procs).predict()

    def observe(self, procs: int, wait: float) -> None:
        member = self._member(procs)
        member.observe(wait, predicted=member.predict())
        member.refit_if_stale()


class _ClusteredStrategy:
    def __init__(self, config: ExperimentConfig):
        self._predictor = ClusteredPredictor(
            quantile=config.quantile,
            confidence=config.confidence,
            max_clusters=4,
            min_leaf=150,
        )

    @property
    def n_groups(self) -> int:
        return self._predictor.clusterer.n_clusters

    def train(self, procs, waits):
        self._predictor.train(procs, waits)

    def predict(self, procs: int) -> Optional[float]:
        return self._predictor.predict(procs)

    def observe(self, procs: int, wait: float) -> None:
        self._predictor.observe(procs, wait)
        self._predictor.refit()


def _evaluate(strategy, procs, waits, n_train) -> Tuple[float, float, int]:
    strategy.train(procs[:n_train], waits[:n_train])
    hits = total = 0
    ratios: List[float] = []
    for p, wait in zip(procs[n_train:], waits[n_train:]):
        bound = strategy.predict(int(p))
        if bound is not None:
            total += 1
            hits += wait <= bound
            if bound > 0:
                ratios.append(wait / bound)
        strategy.observe(int(p), float(wait))
    fraction = hits / total if total else float("nan")
    median = float(np.median(ratios)) if ratios else float("nan")
    return fraction, median, total


def _queue_strategies_work(
    machine: str, queue: str, config: ExperimentConfig
) -> List[ClusteringRow]:
    """Evaluate all three grouping strategies on one queue (worker-side)."""
    trace = trace_for(spec_for(machine, queue), config)
    procs = trace.procs.astype(float)
    waits = trace.waits
    n_train = math.ceil(config.training_fraction * len(trace))
    rows: List[ClusteringRow] = []
    for name in STRATEGIES:
        strategy = {
            "population": _PopulationStrategy,
            "fixed-bins": _FixedBinStrategy,
            "clustered": _ClusteredStrategy,
        }[name](config)
        fraction, median, total = _evaluate(strategy, procs, waits, n_train)
        rows.append(
            ClusteringRow(
                machine=machine,
                queue=queue,
                strategy=name,
                fraction_correct=fraction,
                median_ratio=median,
                n_evaluated=total,
                n_groups=strategy.n_groups,
            )
        )
    return rows


def run_clustering_eval(
    config: Optional[ExperimentConfig] = None,
) -> List[ClusteringRow]:
    """Evaluate the three grouping strategies on the size-sensitive queues.

    Uses the simple sequential (per-event) protocol rather than the full
    epoch simulator — the epoch-length ablation shows the difference is
    negligible, and here every strategy sees the identical stream.  One
    engine work item per queue.
    """
    config = config or ExperimentConfig()
    specs = [spec_for(*queue) for queue in CLUSTERING_QUEUES]
    # Every strategy is built from BMBP predictors; prime only that.
    bank = {"bmbp": BMBPPredictor(
        quantile=config.quantile, confidence=config.confidence
    )}
    rows: List[ClusteringRow] = []
    for queue_rows in run_per_queue(_queue_strategies_work, specs, config, bank):
        rows.extend(queue_rows)
    return rows


def render(rows: List[ClusteringRow]) -> str:
    headers = ["queue", "strategy", "groups", "coverage", "median ratio", "n"]
    body = [
        [
            f"{row.machine}/{row.queue}",
            row.strategy,
            str(row.n_groups),
            f"{row.fraction_correct:.3f}" + ("" if row.correct else "*"),
            f"{row.median_ratio:.3g}",
            str(row.n_evaluated),
        ]
        for row in rows
    ]
    title = (
        "Grouping strategies — coverage and tightness of per-job bounds "
        "(higher median ratio = tighter at equal coverage)"
    )
    return render_table(headers, body, title=title)


def main(config: Optional[ExperimentConfig] = None) -> str:
    return render(run_clustering_eval(config))
