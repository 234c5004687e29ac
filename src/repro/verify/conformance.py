"""Monte Carlo conformance: does the (q, C) guarantee hold empirically?

BMBP's claim (paper §2) is statistical: the quoted bound covers the
q-quantile of queuing delay with confidence C.  Unit tests check the
binomial arithmetic; nothing checks the *claim*.  This module does, the
way Guang et al. validate tail-quantile estimators: calibrated Monte
Carlo coverage experiments over seeded synthetic generators whose true
quantiles are known analytically.

Three generator families, in increasing order of hostility:

* **i.i.d. log-normal** — the predictor's textbook setting.
* **AR(1)-correlated logs** — waits whose logarithms follow a stationary
  AR(1) process with unit marginal variance, so the marginal quantile is
  unchanged but the effective sample size shrinks (the paper's rare-event
  tables exist exactly for this).
* **regime shift** — an AR(1) stream whose log-mean jumps mid-trace,
  exercising the consecutive-miss change-point detector through the full
  replay simulator.
* **closed-loop feedback** — waits produced *by* the bound-aware
  predictive scheduler (whose admission and selection decisions consult
  a live BMBP forecaster fed by its own emitted waits) are fed back
  through the replay harness, re-proving the coverage claim when the
  predictor's own actions shape the workload — the feedback-loop
  validity question arXiv 2008.08292 leaves open.

Coverage is asserted through a Wilson score interval: with ``trials``
seeded repetitions and ``successes`` covered ones, the check passes when
the Wilson upper limit reaches the target — i.e. we fail only when the
experiment shows coverage *confidently below* the guarantee, never for
ordinary Monte Carlo noise.  A negative control (the point-quantile
baseline, which has no confidence margin by construction) proves the
harness actually detects under-coverage.  Derivation and tolerance
discussion: ``docs/verification.md``.

Seeds are fixed; every number here is reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.baselines import PointQuantilePredictor
# make_bank, QUANTILE, CONFIDENCE and wilson_interval stay importable from
# here: perfbench's traced runs and serve checks use them under these names.
from repro.core.bank import CONFIDENCE, HEADLINE, QUANTILE, SKETCHES, make_bank
from repro.core.bmbp import BMBPPredictor
from repro.core.lognormal import LogNormalPredictor
from repro.simulator.replay import ReplayConfig, replay_single
from repro.stats.distributions import DEFAULT_LOG_SHIFT
from repro.stats.proportion import wilson_interval
from repro.workloads.trace import Job, Trace

__all__ = [
    "TIERS",
    "CONFORMANCE_CHECKS",
    "TierParams",
    "ar1_log_waits",
    "iid_lognormal_waits",
    "make_bank",
    "regime_shift_trace",
    "run_check",
    "static_coverage",
    "wilson_interval",
]

#: Log-normal parameters for the synthetic wait distributions: median
#: wait e^4 ~ 55 s with a heavy tail, roughly the paper's trace regime.
MU = 4.0
SIGMA = 1.0

#: AR(1) coefficient of the correlated-log family (calibration showed
#: BMBP still over-covers at rho 0.25-0.4; the rare-event table absorbs it).
RHO = 0.3


@dataclass(frozen=True)
class TierParams:
    """Monte Carlo sizes for one verification tier."""

    trials: int  # static-coverage repetitions per family
    sample_size: int  # history length per static trial
    replays: int  # independent regime-shift replays
    replay_jobs: int  # jobs per replay trace
    seed: int = 20260806


TIERS: Dict[str, TierParams] = {
    # <~15 s of conformance work: CI and the default pytest run.
    "fast": TierParams(trials=400, sample_size=120, replays=4, replay_jobs=2000),
    # Paper-scale: tighter Wilson intervals, longer traces.
    "full": TierParams(trials=2000, sample_size=150, replays=16, replay_jobs=3000),
}


# ------------------------------------------------------------------ generators

def true_lognormal_quantile(
    q: float, mu: float = MU, sigma: float = SIGMA, shift: float = 0.0
) -> float:
    """Analytic q-quantile of ``exp(N(mu, sigma)) - shift``."""
    return math.exp(mu + sigma * NormalDist().inv_cdf(q)) - shift


def iid_lognormal_waits(
    rng: np.random.Generator,
    n: int,
    mu: float = MU,
    sigma: float = SIGMA,
    shift: float = 0.0,
) -> np.ndarray:
    """i.i.d. waits with log(wait + shift) ~ N(mu, sigma).

    ``shift=DEFAULT_LOG_SHIFT`` produces data on the log-normal
    *predictor's* exact home ground (it fits ``log(wait + shift)``), which
    is what makes its coverage check a calibration test rather than a
    model-mismatch test.  The clip only binds with probability
    ``Phi(-mu/sigma)`` (~3e-5 here), far below the q-quantile.
    """
    waits = np.exp(mu + sigma * rng.standard_normal(n)) - shift
    return np.clip(waits, 0.0, None)


def ar1_log_waits(
    rng: np.random.Generator,
    n: int,
    mu: float = MU,
    sigma: float = SIGMA,
    rho: float = RHO,
) -> np.ndarray:
    """Waits whose logs are a stationary AR(1) with unit marginal variance.

    ``x[0] ~ N(0, 1)`` starts the chain in its stationary law, so every
    marginal is exactly N(0, 1) and the analytic marginal quantile of the
    i.i.d. family still applies — only the dependence changes.
    """
    x = np.empty(n)
    eps = rng.standard_normal(n)
    x[0] = eps[0]
    innovation = math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innovation * eps[t]
    return np.exp(mu + sigma * x)


def regime_shift_trace(
    rng: np.random.Generator,
    n: int,
    mu: float = MU,
    sigma: float = SIGMA,
    rho: float = RHO,
    jump: float = 1.0,
    gap: float = 60.0,
) -> Trace:
    """An AR(1) trace whose log-mean jumps by ``jump`` at the midpoint.

    The post-shift medians are e^jump (~2.7x) larger — the kind of regime
    change (new scheduler policy, new workload mix) the consecutive-miss
    detector exists for.
    """
    x = np.empty(n)
    eps = rng.standard_normal(n)
    x[0] = eps[0]
    innovation = math.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[t] = rho * x[t - 1] + innovation * eps[t]
    level = np.full(n, mu)
    level[n // 2:] += jump
    waits = np.exp(level + sigma * x)
    jobs = [
        Job(submit_time=i * gap, wait=float(waits[i]), procs=1, queue="verify")
        for i in range(n)
    ]
    return Trace(jobs=jobs, name="regime-shift")


# ------------------------------------------------------------------- coverage

def static_coverage(
    factory: Callable[[], Any],
    sampler: Callable[[np.random.Generator], np.ndarray],
    true_quantile: float,
    trials: int,
    seed: int,
) -> Tuple[int, int]:
    """(covered, trials): does a fresh fit's bound reach the true quantile?

    Each trial draws an independent history, fits a fresh predictor
    through the real production path (``preload_history`` + ``refit``),
    and scores whether the quoted bound covers the analytic quantile.
    """
    covered = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        predictor = factory()
        predictor.preload_history(sampler(rng))
        predictor.refit()
        bound = predictor.predict()
        if bound is not None and bound >= true_quantile:
            covered += 1
    return covered, trials


def replay_coverage(
    factory: Callable[[], Any],
    tier: TierParams,
    seed_offset: int,
) -> Dict[str, Any]:
    """Pooled dynamic coverage of regime-shift replays.

    Dynamic coverage is scored against the replay's own jobs (did the wait
    stay under the quote?), so the target is q, not C: over a long
    nonstationary replay the fraction of held quotes is the paper's
    Table 3 metric.
    """
    correct = evaluated = change_points = 0
    per_replay: List[float] = []
    for i in range(tier.replays):
        rng = np.random.default_rng([tier.seed, seed_offset, i])
        trace = regime_shift_trace(rng, tier.replay_jobs)
        result = replay_single(trace, factory(), ReplayConfig(epoch=300.0))
        correct += result.n_correct
        evaluated += result.n_evaluated
        change_points += result.change_points
        per_replay.append(round(result.fraction_correct, 4))
    return {
        "correct": correct,
        "evaluated": evaluated,
        "change_points": change_points,
        "per_replay_fraction": per_replay,
    }


# -------------------------------------------------------------------- checks

def _coverage_check(
    covered: int,
    trials: int,
    target: float,
    extra: Optional[Dict[str, Any]] = None,
    expect_undercoverage: bool = False,
) -> Tuple[bool, Dict[str, Any]]:
    lo, hi = wilson_interval(covered, trials)
    details = {
        "covered": covered,
        "trials": trials,
        "coverage": round(covered / trials, 4),
        "wilson_95": [round(lo, 4), round(hi, 4)],
        "target": target,
    }
    details.update(extra or {})
    passed = (hi < target) if expect_undercoverage else (hi >= target)
    return passed, details


def check_bmbp_iid(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """BMBP coverage of the true quantile on i.i.d. log-normal waits."""
    covered, trials = static_coverage(
        lambda: BMBPPredictor(QUANTILE, CONFIDENCE),
        lambda rng: iid_lognormal_waits(rng, tier.sample_size),
        true_lognormal_quantile(QUANTILE),
        tier.trials,
        seed=tier.seed + 1,
    )
    return _coverage_check(covered, trials, CONFIDENCE, {"family": "iid-lognormal"})


def check_bmbp_ar1(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """BMBP coverage under AR(1)-correlated logs (same marginal quantile)."""
    covered, trials = static_coverage(
        lambda: BMBPPredictor(QUANTILE, CONFIDENCE),
        lambda rng: ar1_log_waits(rng, tier.sample_size),
        true_lognormal_quantile(QUANTILE),
        tier.trials,
        seed=tier.seed + 2,
    )
    return _coverage_check(
        covered, trials, CONFIDENCE, {"family": "ar1-lognormal", "rho": RHO}
    )


def check_bmbp_regime_replay(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """BMBP through the full simulator on regime-shift traces.

    Pooled fraction-correct must reach q (Wilson-upper sense) and the
    change-point detector must actually fire — a replay that never trims
    would pass the coverage bar only by luck.
    """
    outcome = replay_coverage(
        lambda: BMBPPredictor(QUANTILE, CONFIDENCE), tier, seed_offset=3
    )
    passed, details = _coverage_check(
        outcome["correct"],
        outcome["evaluated"],
        QUANTILE,
        {
            "family": "regime-shift",
            "change_points": outcome["change_points"],
            "per_replay_fraction": outcome["per_replay_fraction"],
            "replays": tier.replays,
        },
    )
    if outcome["change_points"] < 1:
        passed = False
        details["failure"] = "change-point detector never fired"
    return passed, details


def check_lognormal_iid(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Log-normal method coverage on its exact parametric home ground."""
    shift = DEFAULT_LOG_SHIFT
    covered, trials = static_coverage(
        lambda: LogNormalPredictor(QUANTILE, CONFIDENCE, trim=False),
        lambda rng: iid_lognormal_waits(rng, tier.sample_size, shift=shift),
        true_lognormal_quantile(QUANTILE, shift=shift),
        tier.trials,
        seed=tier.seed + 4,
    )
    return _coverage_check(
        covered, trials, CONFIDENCE, {"family": "iid-lognormal", "shift": shift}
    )


def check_detects_undercoverage(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Negative control: the harness must flag a method with no margin.

    The point-quantile baseline covers the true quantile only ~half the
    time (it has no confidence margin); if this check ever sees its Wilson
    upper limit reach C, the harness itself is broken.
    """
    covered, trials = static_coverage(
        lambda: PointQuantilePredictor(QUANTILE, CONFIDENCE),
        lambda rng: iid_lognormal_waits(rng, tier.sample_size),
        true_lognormal_quantile(QUANTILE),
        tier.trials,
        seed=tier.seed + 5,
    )
    return _coverage_check(
        covered,
        trials,
        CONFIDENCE,
        {"family": "iid-lognormal", "method": "point-quantile"},
        expect_undercoverage=True,
    )


def check_baseline_sweep(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Replay every method over one AR(1) trace; record, don't judge.

    Baselines are *expected* to vary (that is the paper's point), so this
    check only asserts each method produced evaluations; the per-method
    fractions land in VERIFY.json for trend-watching.  The sketch-backed
    methods ride along: their dynamic fractions are recorded next to the
    exact point-quantile they approximate.
    """
    rng = np.random.default_rng([tier.seed, 6])
    waits = ar1_log_waits(rng, tier.replay_jobs)
    jobs = [
        Job(submit_time=i * 60.0, wait=float(w), procs=1, queue="verify")
        for i, w in enumerate(waits)
    ]
    trace = Trace(jobs=jobs, name="baseline-sweep")
    fractions: Dict[str, float] = {}
    passed = True
    for name, predictor in make_bank(HEADLINE + SKETCHES).items():
        result = replay_single(trace, predictor, ReplayConfig(epoch=300.0))
        fractions[name] = round(result.fraction_correct, 4)
        if result.n_evaluated == 0:
            passed = False
    return passed, {"fraction_correct": fractions, "jobs": tier.replay_jobs}


#: Sketch-estimate accuracy contracts: (max, mean) relative error of the
#: sketch's q-quantile against the exact empirical quantile *of the same
#: sample*.  These bound approximation error only (both sides see
#: identical data), calibrated against the i.i.d. log-normal family at
#: conformance-tier sample sizes (~120-150 observations — the operational
#: window after a trim), where observed worst cases over 2000 trials are
#: ~0.67/0.11 for P² and ~0.29/0.04 for the t-digest.  P² keeps five
#: markers total, so its heavy-tail estimate is the loosest; the t-digest
#: keeps tail centroids of one or two points, leaving only inter-point
#: interpolation error.
SKETCH_ERROR_CONTRACTS: Dict[str, Tuple[float, float]] = {
    "p2-quantile": (0.80, 0.15),
    "tdigest-quantile": (0.40, 0.06),
}


def check_sketch_quantile_accuracy(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Streaming sketches track the exact empirical quantile they replace.

    The sketch bank methods carry **no coverage guarantee** — a sketch
    estimates the same no-margin empirical quantile as the point-quantile
    baseline, approximately.  So this check scores approximation, not
    coverage: per seeded trial, one i.i.d. log-normal history is streamed
    through the sketch-backed predictor and the exact predictor, and the
    relative gap between their quotes is recorded.  It passes while the
    worst gap stays inside the per-sketch contract above.
    """
    details: Dict[str, Any] = {"trials": tier.trials, "sample_size": tier.sample_size}
    passed = True
    for name in SKETCHES:
        worst = total = 0.0
        for trial in range(tier.trials):
            rng = np.random.default_rng([tier.seed, 7, trial])
            waits = iid_lognormal_waits(rng, tier.sample_size)
            sketched = make_bank((name,))[name]
            sketched.preload_history(waits)
            sketched.refit()
            rank = max(1, math.ceil(waits.size * QUANTILE))
            exact = float(np.sort(waits)[rank - 1])
            rel = abs(sketched.predict() - exact) / exact
            worst = max(worst, rel)
            total += rel
        max_contract, mean_contract = SKETCH_ERROR_CONTRACTS[name]
        mean = total / tier.trials
        details[name] = {
            "max_rel_error": round(worst, 4),
            "mean_rel_error": round(mean, 4),
            "contract_max_rel_error": max_contract,
            "contract_mean_rel_error": mean_contract,
        }
        if worst > max_contract or mean > mean_contract:
            passed = False
    return passed, details


def closed_loop_trace(seed: int, n_jobs: int) -> Tuple[Trace, Dict[str, Any]]:
    """One trace of waits produced by the full predictive scheduler stack.

    A seeded cluster workload is scheduled by :class:`AdmissionHoldPolicy`
    (admission hold + bound-ranked selection, both consulting a forecaster
    fed by the engine's own submit/start events), so every wait in the
    returned trace was shaped by BMBP's own decisions.  Returns the trace
    plus counters proving the loop actually engaged.
    """
    from repro.scheduler.engine import simulate
    from repro.scheduler.evaluate import assign_classes, default_budgets
    from repro.scheduler.predictive import AdmissionHoldPolicy, ForecastFeed
    from repro.scheduler.workload import ClusterWorkloadConfig, generate_jobs

    procs = 64
    jobs = assign_classes(
        generate_jobs(
            ClusterWorkloadConfig(
                n_jobs=n_jobs, machine_procs=procs, utilization=0.92,
                daily_amplitude=0.5, seed=seed,
            )
        ),
        procs,
    )
    policy = AdmissionHoldPolicy(
        feed=ForecastFeed(training_jobs=30), budgets=default_budgets()
    )
    trace = simulate(jobs, procs, policy, trace_name=f"closed-loop-{seed}")
    return trace, {
        "feed_events": policy.feed.events,
        "holds": len(policy.hold_log),
    }


def check_closed_loop_feedback(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Coverage when BMBP's own actions generate the waits it predicts.

    Every static and replay family above draws waits from an exogenous
    process.  Here the waits come out of the predictive scheduling loop —
    the forecaster being validated is the one steering admission and
    selection — and pooled dynamic coverage must still reach q.  The
    check also asserts the loop really closed: the policy's forecaster
    must have ingested events in every replay.

    Traces are 3x ``replay_jobs`` long: a scheduler trace's waits arrive
    in congestion bursts, and a short trace can be dominated by a single
    diurnal burst whose onset BMBP has no history for.  The paper's
    traces span months, so burst onsets are a vanishing fraction of
    evaluated jobs; tripling the stream is the cheapest step toward that
    regime (pooled coverage is ~0.94 at 2k jobs and >=0.95 from 6k up).
    """
    correct = evaluated = feed_events = holds = 0
    per_replay: List[float] = []
    for i in range(tier.replays):
        trace, counters = closed_loop_trace(
            seed=tier.seed + 800 + i, n_jobs=3 * tier.replay_jobs
        )
        result = replay_single(
            trace, BMBPPredictor(QUANTILE, CONFIDENCE), ReplayConfig(epoch=300.0)
        )
        correct += result.n_correct
        evaluated += result.n_evaluated
        feed_events += counters["feed_events"]
        holds += counters["holds"]
        per_replay.append(round(result.fraction_correct, 4))
        if counters["feed_events"] == 0:
            return False, {
                "family": "closed-loop-feedback",
                "failure": f"forecast feed saw no events in replay {i}",
            }
    passed, details = _coverage_check(
        correct,
        evaluated,
        QUANTILE,
        {
            "family": "closed-loop-feedback",
            "per_replay_fraction": per_replay,
            "replays": tier.replays,
            "feed_events": feed_events,
            "holds": holds,
        },
    )
    return passed, details


def check_real_trace_corpus(tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    """Coverage on the full raw-log path: ETL -> columnar store -> replay.

    Every other family feeds the predictor synthetic arrays directly.
    This one exercises the pipeline a *real* archive log takes: an
    archive-shaped SWF file (multi-queue, seeded anomalies, partial
    records) is generated, streamed through the ETL cleaning pass into a
    memmap store, and the store's zero-copy view is replayed per queue
    through the epoch kernel.  Pooled dynamic coverage must reach q, and
    the check additionally asserts the plumbing facts the corpus claims:
    the drop ledger equals the fixture's injected anomaly counts exactly
    (cleaning is counted, never silent), the kept row count survives the
    store round-trip, and the replayed views are ``np.memmap``-backed.
    """
    import tempfile
    from pathlib import Path

    from repro.corpus import etl as corpus_etl
    from repro.corpus import fixtures as corpus_fixtures
    from repro.simulator.replay import ReplayConfig, replay_single

    n_jobs = max(4 * tier.replay_jobs, 8000)
    correct = evaluated = 0
    per_queue: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="bmbp-conf-corpus-") as td:
        log_path = Path(td) / "fixture.swf.gz"
        summary = corpus_fixtures.generate_corpus_fixture(
            log_path, jobs=n_jobs, seed=tier.seed + 900
        )
        store, stats = corpus_etl.ingest(log_path, Path(td) / "site")
        expected = corpus_fixtures.expected_drops(summary)
        if dict(stats.drops) != expected:
            return False, {
                "family": "real-trace-corpus",
                "failure": f"ETL drop ledger {dict(stats.drops)} != "
                f"injected anomalies {expected}",
            }
        if store.rows != summary.jobs:
            return False, {
                "family": "real-trace-corpus",
                "failure": f"store holds {store.rows} rows, fixture wrote "
                f"{summary.jobs} valid records",
            }
        view = store.view()
        if not view.is_memmap_backed():
            return False, {
                "family": "real-trace-corpus",
                "failure": "store view is not np.memmap-backed (zero-copy "
                "load regression)",
            }
        min_queue_jobs = max(tier.replay_jobs // 4, 300)
        for queue in view.queues():
            qview = view.by_queue(queue)
            if len(qview) < min_queue_jobs:
                continue
            result = replay_single(
                qview, BMBPPredictor(QUANTILE, CONFIDENCE),
                ReplayConfig(epoch=300.0),
            )
            correct += result.n_correct
            evaluated += result.n_evaluated
            per_queue[queue] = round(result.fraction_correct, 4)
    return _coverage_check(
        correct,
        evaluated,
        QUANTILE,
        {
            "family": "real-trace-corpus",
            "fixture_jobs": n_jobs,
            "drops": dict(stats.drops),
            "per_queue_fraction": per_queue,
            "queues_replayed": len(per_queue),
        },
    )


#: Conformance check registry, in report order.
CONFORMANCE_CHECKS: Dict[str, Callable[[TierParams], Tuple[bool, Dict[str, Any]]]] = {
    "bmbp-iid-coverage": check_bmbp_iid,
    "bmbp-ar1-coverage": check_bmbp_ar1,
    "bmbp-regime-replay-coverage": check_bmbp_regime_replay,
    "lognormal-iid-coverage": check_lognormal_iid,
    "harness-detects-undercoverage": check_detects_undercoverage,
    "baseline-sweep": check_baseline_sweep,
    "sketch-quantile-accuracy": check_sketch_quantile_accuracy,
    "closed-loop-feedback": check_closed_loop_feedback,
    "real-trace-corpus": check_real_trace_corpus,
}


def run_check(name: str, tier: TierParams) -> Tuple[bool, Dict[str, Any]]:
    return CONFORMANCE_CHECKS[name](tier)
