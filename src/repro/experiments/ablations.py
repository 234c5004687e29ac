"""Ablation studies for the design choices DESIGN.md calls out.

Five ablations, each isolating one design decision:

1. **Bound computation** — exact binomial inversion vs the paper's normal
   approximation (they should agree in coverage; the approximation is the
   speed/size tradeoff the Appendix motivates).
2. **Epoch length** — the paper claims refitting per-event (epoch 0) versus
   every 300 s has minimal effect; we also stretch to 3600 s.
3. **History trimming** — BMBP with change-point trimming disabled, and
   with a fixed 1000-observation sliding window instead, on a strongly
   nonstationary queue (the degradation that motivated trimming in
   Section 4.1, plus the obvious alternative to it).
4. **Baselines** — the no-confidence-margin empirical quantile, the
   percentile bootstrap (the modern nonparametric alternative), Downey's
   log-uniform, a Weibull fit (a different parametric family), the
   max-observed strawman, and the mean-wait eyeball forecast,
   demonstrating the correctness/accuracy tradeoff of Section 5.
5. **Scheduler substrate** — BMBP vs log-normal NoTrim on *organic* waits
   generated by the space-shared scheduler simulator (EASY backfill,
   conservative backfill, and a priority policy with mid-run administrator
   retunes), checking that BMBP's coverage does not depend on the
   synthetic trace generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.bank import make_bank
from repro.core.bmbp import BMBPPredictor
from repro.experiments.parallel import prime
from repro.experiments.report import render_table
from repro.experiments.runner import ExperimentConfig, trace_for
from repro.runtime import Task, run_tasks
from repro.scheduler import (
    ClusterWorkloadConfig,
    EasyBackfillPolicy,
    PriorityPolicy,
    generate_jobs,
    simulate,
)
from repro.scheduler.policies import ConservativeBackfillPolicy
from repro.simulator.replay import ReplayConfig, replay
from repro.workloads.spec import spec_for

__all__ = ["AblationRow", "run_ablations"]


@dataclass(frozen=True)
class AblationRow:
    """One (ablation, variant) outcome."""

    ablation: str
    variant: str
    fraction_correct: float
    median_ratio: float
    n_evaluated: int


def _rows(ablation: str, results: Dict[str, object]) -> List[AblationRow]:
    return [
        AblationRow(
            ablation=ablation,
            variant=name,
            fraction_correct=result.fraction_correct,
            median_ratio=result.median_ratio,
            n_evaluated=result.n_evaluated,
        )
        for name, result in results.items()
    ]


def _ablate_rank_method(config: ExperimentConfig) -> List[AblationRow]:
    trace = trace_for(spec_for("sdsc", "normal"), config)
    predictors = {
        method: BMBPPredictor(
            quantile=config.quantile, confidence=config.confidence, method=method
        )
        for method in ("exact", "normal", "auto")
    }
    return _rows("rank-method", replay(trace, predictors, config.replay))


def _ablate_epoch(config: ExperimentConfig) -> List[AblationRow]:
    trace = trace_for(spec_for("llnl", "all"), config)
    rows: List[AblationRow] = []
    for epoch in (0.0, 300.0, 3600.0):
        replay_config = ReplayConfig(
            epoch=epoch, training_fraction=config.training_fraction
        )
        results = replay(
            trace,
            {f"epoch={epoch:.0f}s": BMBPPredictor(
                quantile=config.quantile, confidence=config.confidence
            )},
            replay_config,
        )
        rows.extend(_rows("epoch-length", results))
    return rows


def _ablate_trimming(config: ExperimentConfig) -> List[AblationRow]:
    trace = trace_for(spec_for("datastar", "normal"), config)
    predictors = {
        "bmbp-trim": BMBPPredictor(
            quantile=config.quantile, confidence=config.confidence, trim=True
        ),
        "bmbp-notrim": BMBPPredictor(
            quantile=config.quantile, confidence=config.confidence, trim=False
        ),
        "bmbp-window1000": BMBPPredictor(
            quantile=config.quantile,
            confidence=config.confidence,
            trim=False,
            max_history=1000,
        ),
    }
    return _rows("history-trimming", replay(trace, predictors, config.replay))


def _ablate_baselines(config: ExperimentConfig) -> List[AblationRow]:
    # A strongly nonstationary queue: the no-margin and no-adaptation
    # baselines have to show their weaknesses somewhere they matter.
    trace = trace_for(spec_for("datastar", "normal"), config)
    predictors = make_bank(
        ("bmbp", "point-quantile", "bootstrap", "downey", "weibull",
         "max-observed", "mean-wait"),
        config.quantile, config.confidence,
    )
    return _rows("baselines", replay(trace, predictors, config.replay))


def _ablate_scheduler_substrate(config: ExperimentConfig) -> List[AblationRow]:
    rows: List[AblationRow] = []
    workload = ClusterWorkloadConfig(
        n_jobs=max(2000, int(8000 * config.scale)),
        utilization=0.88,
        seed=config.seed,
    )
    scenarios = {
        "easy-backfill": (EasyBackfillPolicy(), None),
        "conservative": (ConservativeBackfillPolicy(), None),
        "priority-retuned": (
            PriorityPolicy(weights={"high": 10.0, "normal": 0.0, "low": -10.0},
                           aging_rate=0.02),
            # Mid-run administrator actions: invert, then restore, weights.
            [(2.0e6, {"high": -5.0, "normal": 0.0, "low": 12.0}),
             (4.5e6, {"high": 10.0, "normal": 0.0, "low": -10.0})],
        ),
    }
    for name, (policy, retunes) in scenarios.items():
        trace = simulate(
            generate_jobs(workload),
            workload.machine_procs,
            policy,
            retune_schedule=retunes,
            trace_name=name,
        )
        predictors = {
            f"{name}/{method}": predictor
            for method, predictor in make_bank(
                ("bmbp", "logn-notrim"), config.quantile, config.confidence
            ).items()
        }
        rows.extend(
            _rows("scheduler-substrate", replay(trace, predictors, config.replay))
        )
    return rows


#: The five ablations, in presentation order; each is an independent work
#: item for the parallel engine (traces are regenerated worker-side).
_ABLATIONS = (
    ("rank-method", _ablate_rank_method),
    ("epoch-length", _ablate_epoch),
    ("history-trimming", _ablate_trimming),
    ("baselines", _ablate_baselines),
    ("scheduler-substrate", _ablate_scheduler_substrate),
)


def run_ablations(config: Optional[ExperimentConfig] = None) -> List[AblationRow]:
    """Run all five ablations; returns one row per (ablation, variant)."""
    config = config or ExperimentConfig()
    tasks = [
        Task(func=func, args=(config,), label=f"ablation:{name}")
        for name, func in _ABLATIONS
    ]
    # Every bank is built at config's level, so the paper's three methods
    # read every table the tasks do; these are the queues they generate.
    specs = [spec_for(*queue) for queue in
             (("sdsc", "normal"), ("llnl", "all"), ("datastar", "normal"))]
    rows: List[AblationRow] = []
    for ablation_rows in run_tasks(tasks, before_fork=lambda: prime(specs, config)):
        rows.extend(ablation_rows)
    return rows


def render(rows: List[AblationRow]) -> str:
    headers = ["ablation", "variant", "correct frac", "median ratio", "n"]
    body = [
        [
            row.ablation,
            row.variant,
            f"{row.fraction_correct:.3f}",
            f"{row.median_ratio:.3g}",
            str(row.n_evaluated),
        ]
        for row in rows
    ]
    return render_table(headers, body, title="Ablations")


def main(config: Optional[ExperimentConfig] = None) -> str:
    return render(run_ablations(config))
