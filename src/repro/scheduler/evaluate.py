"""Oracle-regret evaluation of the bound-aware scheduling policies.

Do the predictive policies actually start jobs sooner?  This module scores
them the way :mod:`repro.broker.evaluate` scores the routing broker:
**regret against a clairvoyant oracle**.  The same arrival stream is
replayed under every policy — three non-predictive baselines (FCFS, EASY,
static-weight priority), the three predictive policies from
:mod:`repro.scheduler.predictive`, and the oracle: EASY backfill running
with *perfect* runtime estimates (``estimate == runtime``), i.e. the
scheduler the sites could run if users never padded.  A policy's per-job
regret is its realized wait minus the oracle's wait for the same job;
the headline score is the mean over jobs and scenarios.

The second headline is the **budget-violation rate**: the fraction of
jobs whose realized wait exceeded their class's :class:`ClassBudget` —
the contract the predictive policies are explicitly trying to defend and
the baselines cannot see.

Job classes are assigned by shape after generation (interactive: narrow
and short; batch: wide or long, deferrable; normal: the rest), mirroring
how production sites route by request profile.  The committed scenario
set spans steady heavy load, a bursty diurnal cycle, and a wide-job mix;
``bmbp bench-sched`` writes the whole table to ``BENCH_sched.json`` and
the CI smoke gate asserts every predictive policy's aggregate mean regret
is strictly below the best non-predictive baseline
(``BMBP_BENCH_MAX_SCHED_REGRET_RATIO`` tightens the multiplier).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from repro.scheduler.engine import SchedulerEngine
from repro.scheduler.job import SchedJob
from repro.scheduler.machine import Machine
from repro.scheduler.policies import (
    EasyBackfillPolicy,
    FcfsPolicy,
    PriorityPolicy,
    SchedulingPolicy,
)
from repro.scheduler.predictive import (
    AdmissionHoldPolicy,
    BoundRankedQueuePolicy,
    ClassBudget,
    ForecastFeed,
    PredictiveBackfillPolicy,
)
from repro.scheduler.workload import ClusterWorkloadConfig, generate_jobs

__all__ = [
    "BENCH_SCHED_SCHEMA",
    "BASELINE_POLICIES",
    "PREDICTIVE_POLICIES",
    "SchedScenario",
    "assign_classes",
    "default_budgets",
    "default_scenarios",
    "evaluate_scenario",
    "main",
    "run_sched_bench",
]

BENCH_SCHED_SCHEMA = "bmbp-bench-sched/1"

#: Class contracts used by every scenario: interactive jobs are promised a
#: short wait and are never held; batch jobs trade a loose budget for
#: deferrability (the admission-hold policy may park them during predicted
#: congestion, for at most ``max_hold``).
INTERACTIVE = "interactive"
NORMAL = "normal"
BATCH = "batch"


def default_budgets() -> Dict[str, ClassBudget]:
    return {
        INTERACTIVE: ClassBudget(budget=900.0),
        NORMAL: ClassBudget(budget=3600.0),
        BATCH: ClassBudget(budget=10800.0, deferrable=True, max_hold=900.0),
    }


#: Static administrator weights for the priority baseline — a plausible
#: hand tuning (interactive first) that, unlike the bound-ranked policy,
#: never adapts to where delay is actually accumulating.
PRIORITY_WEIGHTS = {INTERACTIVE: 100.0, NORMAL: 50.0, BATCH: 0.0}


def assign_classes(jobs: List[SchedJob], machine_procs: int) -> List[SchedJob]:
    """Reassign queues by job shape, in place; returns the same list.

    interactive — narrow (≤ 4 procs) and short (≤ 30 min estimate);
    batch — wide (≥ a quarter of the machine) or long (≥ 4 h estimate);
    normal — everything else.
    """
    wide = max(1, machine_procs // 4)
    for job in jobs:
        if job.procs <= 4 and job.estimate <= 1800.0:
            job.queue = INTERACTIVE
        elif job.procs >= wide or job.estimate >= 4 * 3600.0:
            job.queue = BATCH
        else:
            job.queue = NORMAL
    return jobs


@dataclass(frozen=True)
class SchedScenario:
    """One committed workload the policy table is scored on.

    ``smoke`` marks the scenarios the CI smoke gate runs.  Smoke keeps
    full-length streams and drops whole scenarios instead of truncating:
    short streams systematically flatter greedy baselines (a deferred
    wide job is cheap when the stream ends before the bill arrives), so
    a truncated gate would measure the horizon, not the policy.
    """

    name: str
    n_jobs: int
    machine_procs: int
    utilization: float
    seed: int
    runtime_sigma: float = 1.6
    daily_amplitude: float = 0.5
    training_jobs: int = 30
    smoke: bool = False

    def workload(self, n_jobs: Optional[int] = None) -> List[SchedJob]:
        config = ClusterWorkloadConfig(
            n_jobs=n_jobs or self.n_jobs,
            machine_procs=self.machine_procs,
            utilization=self.utilization,
            runtime_sigma=self.runtime_sigma,
            daily_amplitude=self.daily_amplitude,
            seed=self.seed,
        )
        return assign_classes(generate_jobs(config), self.machine_procs)


def default_scenarios() -> List[SchedScenario]:
    return [
        SchedScenario(
            name="steady-heavy", n_jobs=2200, machine_procs=64,
            utilization=0.92, daily_amplitude=0.3, seed=101,
        ),
        SchedScenario(
            name="light-bursty", n_jobs=2400, machine_procs=64,
            utilization=0.88, runtime_sigma=1.4, daily_amplitude=0.5, seed=404,
            smoke=True,
        ),
        SchedScenario(
            name="long-tail", n_jobs=2200, machine_procs=64,
            utilization=0.94, runtime_sigma=1.8, daily_amplitude=0.3, seed=101,
        ),
        SchedScenario(
            name="small-machine", n_jobs=2000, machine_procs=32,
            utilization=0.90, daily_amplitude=0.3, seed=101, smoke=True,
        ),
    ]


# ----------------------------------------------------------- policy table


def _clone(job: SchedJob, estimate: Optional[float] = None) -> SchedJob:
    """Fresh SchedJob for one policy run (start_time is mutated by runs)."""
    return SchedJob(
        job_id=job.job_id,
        arrival=job.arrival,
        runtime=job.runtime,
        procs=job.procs,
        estimate=estimate if estimate is not None else job.estimate,
        queue=job.queue,
        priority=job.priority,
    )


PolicyFactory = Callable[[SchedScenario], SchedulingPolicy]

BASELINE_POLICIES: Dict[str, PolicyFactory] = {
    "fcfs": lambda scenario: FcfsPolicy(),
    "easy": lambda scenario: EasyBackfillPolicy(),
    "priority": lambda scenario: PriorityPolicy(
        weights=dict(PRIORITY_WEIGHTS), aging_rate=1.0
    ),
}

PREDICTIVE_POLICIES: Dict[str, PolicyFactory] = {
    "predictive-backfill": lambda scenario: PredictiveBackfillPolicy(
        feed=ForecastFeed(training_jobs=scenario.training_jobs),
        budgets=default_budgets(),
    ),
    "predictive-queue": lambda scenario: BoundRankedQueuePolicy(
        feed=ForecastFeed(training_jobs=scenario.training_jobs),
        budgets=default_budgets(),
    ),
    "predictive-hold": lambda scenario: AdmissionHoldPolicy(
        feed=ForecastFeed(training_jobs=scenario.training_jobs),
        budgets=default_budgets(),
    ),
}


def _run_policy(
    policy: SchedulingPolicy, jobs: List[SchedJob], machine_procs: int
) -> Dict[int, float]:
    """Replay the stream under one policy; waits keyed by job id."""
    engine = SchedulerEngine(Machine(machine_procs), policy)
    started = engine.run(jobs)
    return {job.job_id: job.wait for job in started}


def _score(
    waits: Dict[int, float],
    oracle: Dict[int, float],
    budgets: Dict[str, ClassBudget],
    queues: Dict[int, str],
) -> Dict[str, Any]:
    ordered = sorted(waits)
    w = np.asarray([waits[jid] for jid in ordered])
    regrets = np.asarray([waits[jid] - oracle[jid] for jid in ordered])
    violations = sum(
        1 for jid in ordered if waits[jid] > budgets[queues[jid]].budget
    )
    return {
        "jobs": len(ordered),
        "mean_wait_s": float(w.mean()),
        "p95_wait_s": float(np.quantile(w, 0.95)),
        "mean_regret_s": float(regrets.mean()),
        "total_regret_s": float(regrets.sum()),
        "violation_rate": violations / len(ordered),
    }


def evaluate_scenario(
    scenario: SchedScenario, n_jobs: Optional[int] = None
) -> Dict[str, Any]:
    """Replay one scenario under every policy plus the oracle."""
    jobs = scenario.workload(n_jobs)
    budgets = default_budgets()
    queues = {job.job_id: job.queue for job in jobs}

    # The oracle: EASY with perfect estimates — what the machine could do
    # if the scheduler saw true runtimes.
    oracle = _run_policy(
        EasyBackfillPolicy(),
        [_clone(job, estimate=max(job.runtime, 1.0)) for job in jobs],
        scenario.machine_procs,
    )

    result: Dict[str, Any] = {
        "name": scenario.name,
        "config": {
            "n_jobs": len(jobs),
            "machine_procs": scenario.machine_procs,
            "utilization": scenario.utilization,
            "runtime_sigma": scenario.runtime_sigma,
            "daily_amplitude": scenario.daily_amplitude,
            "seed": scenario.seed,
            "training_jobs": scenario.training_jobs,
        },
        "oracle_mean_wait_s": float(np.mean(list(oracle.values()))),
        "policies": {},
    }
    for name, factory in {**BASELINE_POLICIES, **PREDICTIVE_POLICIES}.items():
        policy = factory(scenario)
        waits = _run_policy(policy, [_clone(job) for job in jobs],
                            scenario.machine_procs)
        scored = _score(waits, oracle, budgets, queues)
        if isinstance(policy, AdmissionHoldPolicy):
            reasons: Dict[str, int] = {}
            for entry in policy.hold_log.values():
                reason = str(entry["reason"])
                reasons[reason] = reasons.get(reason, 0) + 1
            scored["holds"] = len(policy.hold_log)
            scored["hold_reasons"] = reasons
        result["policies"][name] = scored
    return result


# --------------------------------------------------------------- the bench


def run_sched_bench(
    scenarios: Optional[List[SchedScenario]] = None,
    smoke: bool = False,
    max_regret_ratio: float = 1.0,
    artifact: Optional[Union[str, Path]] = "BENCH_sched.json",
) -> Dict[str, Any]:
    """Score the full policy table and write ``BENCH_sched.json``.

    ``smoke`` restricts the run to the scenarios marked ``smoke=True`` —
    the CI variant (full-length streams, fewer of them; see
    :class:`SchedScenario` for why truncation would be wrong).  The
    gate: every predictive policy's aggregate mean regret must be
    strictly below ``max_regret_ratio`` times the best (lowest)
    non-predictive baseline's.  The report always records the verdict;
    the CLI turns a failed gate into a nonzero exit under ``--smoke``.
    """
    if max_regret_ratio <= 0.0:
        raise ValueError("max_regret_ratio must be positive")
    scenarios = scenarios if scenarios is not None else default_scenarios()
    if smoke:
        scenarios = [scenario for scenario in scenarios if scenario.smoke]
    if not scenarios:
        raise ValueError("need at least one scenario")

    report: Dict[str, Any] = {
        "schema": BENCH_SCHED_SCHEMA,
        "config": {
            "smoke": smoke,
            "max_regret_ratio": max_regret_ratio,
            "scenarios": [scenario.name for scenario in scenarios],
        },
        "scenarios": [evaluate_scenario(s) for s in scenarios],
    }

    policy_names = list(BASELINE_POLICIES) + list(PREDICTIVE_POLICIES)
    aggregate: Dict[str, Any] = {}
    for name in policy_names:
        rows = [entry["policies"][name] for entry in report["scenarios"]]
        total_jobs = sum(row["jobs"] for row in rows)
        aggregate[name] = {
            "mean_regret_s": sum(
                row["mean_regret_s"] * row["jobs"] for row in rows
            ) / total_jobs,
            "mean_wait_s": sum(
                row["mean_wait_s"] * row["jobs"] for row in rows
            ) / total_jobs,
            "violation_rate": sum(
                row["violation_rate"] * row["jobs"] for row in rows
            ) / total_jobs,
        }
    report["aggregate"] = aggregate

    best_baseline = min(
        BASELINE_POLICIES, key=lambda name: aggregate[name]["mean_regret_s"]
    )
    best_regret = aggregate[best_baseline]["mean_regret_s"]
    # A negative baseline regret would make a ratio-multiplied threshold
    # *looser*; fall back to the plain strict comparison there.
    threshold = (
        best_regret * max_regret_ratio if best_regret > 0.0 else best_regret
    )
    verdicts = {
        name: aggregate[name]["mean_regret_s"] < threshold
        for name in PREDICTIVE_POLICIES
    }
    report["gate"] = {
        "best_baseline": best_baseline,
        "best_baseline_regret_s": best_regret,
        "threshold_s": threshold,
        "predictive": verdicts,
        "passed": all(verdicts.values()),
    }
    report["created_unix"] = time.time()

    if artifact is not None:
        path = Path(artifact)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def build_bench_sched_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp bench-sched",
        description="score bound-aware policies vs an oracle, write BENCH_sched.json",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI variant: only the smoke-marked scenarios, and a failed "
        "regret gate (every predictive policy strictly below "
        "BMBP_BENCH_MAX_SCHED_REGRET_RATIO times the best non-predictive "
        "baseline, default 1.0) exits nonzero",
    )
    parser.add_argument(
        "--max-regret-ratio", type=float, default=None, metavar="R",
        help="override the gate ratio (default: "
        "$BMBP_BENCH_MAX_SCHED_REGRET_RATIO or 1.0)",
    )
    parser.add_argument(
        "--json", default="BENCH_sched.json", metavar="PATH",
        help="policy-table artifact path (default %(default)s)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_bench_sched_parser().parse_args(argv)
    ratio = args.max_regret_ratio
    if ratio is None:
        ratio = float(os.environ.get("BMBP_BENCH_MAX_SCHED_REGRET_RATIO", "1.0"))
    report = run_sched_bench(
        smoke=args.smoke, max_regret_ratio=ratio, artifact=args.json
    )
    for entry in report["scenarios"]:
        parts = [
            f"{policy}={stats['mean_regret_s']:.0f}s"
            for policy, stats in entry["policies"].items()
        ]
        print(f"{entry['name']}: {' '.join(parts)}")
    gate = report["gate"]
    aggregate = report["aggregate"]
    print(
        f"aggregate regret vs best baseline ({gate['best_baseline']}: "
        f"{gate['best_baseline_regret_s']:.0f}s, threshold "
        f"{gate['threshold_s']:.0f}s): "
        + " ".join(
            f"{policy}={aggregate[policy]['mean_regret_s']:.0f}s"
            f"[{'ok' if ok else 'FAIL'}]"
            for policy, ok in gate["predictive"].items()
        )
    )
    print(f"[bmbp] scheduling benchmark written to {args.json}", file=sys.stderr)
    if args.smoke and not gate["passed"]:
        print(
            "bench-sched: FAILED — a predictive policy's regret is not "
            "strictly below the best baseline",
            file=sys.stderr,
        )
        return 1
    return 0
