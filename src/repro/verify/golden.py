"""Golden-trace regression: pinned bound sequences for small SWF traces.

The conformance checks in :mod:`conformance` are statistical — they
tolerate Monte Carlo noise by design, so a subtle numerical drift (a
reordered reduction in ``stats``, a changed tolerance-factor cache, an
off-by-one in ``HistoryWindow`` trimming) can move every bound by 1e-7
and still sail through.  This layer catches exactly that: for each SWF
fixture in ``tests/golden/`` the full per-refit bound series of a bank of
methods is pinned in a JSON file, and verification recomputes the series
and reports the *first divergence* (method, refit index, event time,
expected vs got) so a regression points at itself.

Tolerance: bounds are compared at ``rtol=1e-9`` — loose enough to forgive
last-ulp libm differences across platforms and Python versions, six
orders of magnitude tighter than any behavioural change.  Counters
(evaluated jobs, change points) are compared exactly.

Fixtures are SWF *files*, not generator calls: the golden inputs live in
git, so later changes to the synthetic generator cannot silently shift
what the goldens measure.  Regeneration (after an intentional numerical
change): ``bmbp verify --update-golden``, then review the JSON diff.

A second golden family pins the *scheduler* side: the per-job start-time
series of the full predictive stack (:class:`AdmissionHoldPolicy` over a
bound-ranked EASY queue) on a committed job-set fixture
(``sched-jobs.json``).  The closed loop makes every start time depend on
every forecast before it, so this one series transitively pins the
engine's event ordering, the policies' sort keys, and the forecaster's
bound arithmetic.  Same rtol, same first-divergence reporting, same
``--update-golden`` regeneration path.

A third family pins the *corpus replay* path end to end: a committed
archive-shaped SWF fixture (``corpus-site.swf.gz``) is ingested into a
temporary columnar store and replayed through the parallel unit planner
with a split threshold low enough to force chunked units, and the full
per-queue coverage rows are pinned exactly (the report's numeric fields
are already quantized).  Because the serial and parallel paths execute
the identical unit plan, this one golden pins the ETL row filter, the
slice-open geometry, the chunk warmup rule, the deterministic chunk
merge, and the Wilson acceptance arithmetic at once — for every worker
count.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.bank import make_bank
from repro.scheduler.engine import simulate
from repro.scheduler.evaluate import default_budgets
from repro.scheduler.job import SchedJob
from repro.scheduler.predictive import AdmissionHoldPolicy, ForecastFeed
from repro.simulator.replay import ReplayConfig, replay_single
from repro.workloads.swf import load_swf

__all__ = [
    "GOLDEN_CORPUS_SCHEMA",
    "GOLDEN_SCHED_SCHEMA",
    "GOLDEN_SCHEMA",
    "compare_corpus_golden",
    "compare_golden",
    "compare_sched_golden",
    "compute_corpus_golden",
    "compute_golden",
    "compute_sched_golden",
    "golden_dir",
    "regenerate_goldens",
    "verify_goldens",
]

GOLDEN_SCHEMA = "bmbp-golden-v1"
GOLDEN_SCHED_SCHEMA = "bmbp-golden-sched-v1"
GOLDEN_CORPUS_SCHEMA = "bmbp-golden-corpus-v1"

#: Job-set fixture consumed by the scheduler golden (lives in git next to
#: the SWF fixtures, for the same reason: the pinned inputs cannot drift).
SCHED_FIXTURE = "sched-jobs.json"

#: Archive-shaped SWF fixture consumed by the corpus golden.
CORPUS_FIXTURE = "corpus-site.swf.gz"

#: Corpus golden replay settings: the low split threshold forces chunked
#: units on the larger queues, so the chunk warmup rule and deterministic
#: merge are pinned, not just the whole-queue path.
_CORPUS_REPLAY = {"min_queue_jobs": 200, "split_threshold": 800,
                  "epoch": 300.0}

#: Replay settings pinned into every golden (changing these is a golden
#: regeneration event by definition).
_REPLAY = ReplayConfig(epoch=300.0, training_fraction=0.10, record_series=True)

#: The methods pinned per trace: the paper's headline method, both
#: log-normal variants, and two structurally different baselines.
_PINNED_METHODS = ("bmbp", "logn-trim", "logn-notrim", "downey", "point-quantile")

_RTOL = 1e-9


def golden_dir() -> Path:
    """``tests/golden`` of this checkout (fixtures live next to the tests)."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute_golden(trace_path: Path) -> Dict[str, Any]:
    """Replay one SWF fixture against the method bank; return the pinnable record."""
    trace = load_swf(trace_path)
    record: Dict[str, Any] = {
        "schema": GOLDEN_SCHEMA,
        "trace": trace_path.name,
        "trace_sha256": _sha256(trace_path),
        "jobs": len(trace),
        "replay": {
            "epoch": _REPLAY.epoch,
            "training_fraction": _REPLAY.training_fraction,
        },
        "methods": {},
    }
    for name, predictor in make_bank(_PINNED_METHODS).items():
        result = replay_single(trace, predictor, _REPLAY)
        record["methods"][name] = {
            "n_evaluated": result.n_evaluated,
            "n_correct": result.n_correct,
            "n_skipped": result.n_skipped,
            "change_points": result.change_points,
            "series_times": list(result.series_times),
            "series_values": list(result.series_values),
        }
    return record


def compute_sched_golden(jobs_path: Path) -> Dict[str, Any]:
    """Run the predictive stack on the job-set fixture; return the pinnable record.

    The policy is the deepest one — admission hold wrapping the
    bound-ranked EASY queue — so the pinned start times exercise every
    predictive code path (feed, bounds, holds, urgency ranking,
    reservation backfill) in one deterministic run.
    """
    spec = json.loads(jobs_path.read_text())
    jobs = [SchedJob(**j) for j in spec["jobs"]]
    policy = AdmissionHoldPolicy(
        feed=ForecastFeed(training_jobs=spec["training_jobs"]),
        budgets=default_budgets(),
    )
    simulate(jobs, spec["machine_procs"], policy, trace_name="golden-sched")
    ordered = sorted(jobs, key=lambda job: job.job_id)
    return {
        "schema": GOLDEN_SCHED_SCHEMA,
        "trace": jobs_path.name,
        "trace_sha256": _sha256(jobs_path),
        "jobs": len(jobs),
        "machine_procs": spec["machine_procs"],
        "policy": policy.name,
        "training_jobs": spec["training_jobs"],
        "holds": len(policy.hold_log),
        "job_ids": [job.job_id for job in ordered],
        "start_times": [job.start_time for job in ordered],
    }


def compare_sched_golden(
    pinned: Dict[str, Any], recomputed: Dict[str, Any]
) -> List[str]:
    """First-divergence messages for a scheduler golden (empty when clean)."""
    problems: List[str] = []
    if pinned.get("trace_sha256") != recomputed["trace_sha256"]:
        problems.append(
            f"job-set fixture changed on disk (sha256 "
            f"{recomputed['trace_sha256'][:12]}..., "
            f"pinned {str(pinned.get('trace_sha256'))[:12]}...)"
        )
    for counter in ("jobs", "machine_procs", "policy", "training_jobs", "holds"):
        if pinned.get(counter) != recomputed[counter]:
            problems.append(
                f"sched.{counter}: expected {pinned.get(counter)!r}, "
                f"got {recomputed[counter]!r}"
            )
            return problems
    want_ids, got_ids = pinned["job_ids"], recomputed["job_ids"]
    want_st, got_st = pinned["start_times"], recomputed["start_times"]
    if want_ids != got_ids:
        problems.append("sched.job_ids: pinned and recomputed id sets differ")
        return problems
    for i, (expected, actual) in enumerate(zip(want_st, got_st)):
        if abs(actual - expected) > _RTOL * max(abs(expected), abs(actual), 1.0):
            problems.append(
                f"sched.start_times[job {want_ids[i]}]: expected "
                f"{expected!r}, got {actual!r} "
                f"(diff {actual - expected:+.3e}, rtol {_RTOL})"
            )
            return problems
    return problems


def compute_corpus_golden(log_path: Path) -> Dict[str, Any]:
    """Ingest + replay the corpus fixture; return the pinnable record.

    The replay runs serially and uncached — the golden is the oracle the
    parallel and cached paths are proven against, so it must never be
    served *by* them.  Every pinned numeric field is already quantized by
    the report (5 decimal places), so comparison is exact.
    """
    import tempfile

    from repro.corpus.etl import ingest
    from repro.corpus.replay import _strip_volatile, replay_store

    with tempfile.TemporaryDirectory(prefix="bmbp-golden-corpus-") as tmp:
        store, stats = ingest(
            log_path, Path(tmp) / "site", site="golden-corpus", force=True
        )
        report = replay_store(
            store, jobs=1, cache=False, **_CORPUS_REPLAY
        )
    record = _strip_volatile(report)
    record.update({
        "schema": GOLDEN_CORPUS_SCHEMA,
        "trace": log_path.name,
        "trace_sha256": _sha256(log_path),
        "ingest": {"read": stats.read, "kept": stats.kept,
                   "drops": dict(sorted(stats.drops.items()))},
        "replay_config": dict(_CORPUS_REPLAY),
    })
    return record


def compare_corpus_golden(
    pinned: Dict[str, Any], recomputed: Dict[str, Any]
) -> List[str]:
    """First-divergence messages for the corpus golden (empty when clean)."""
    problems: List[str] = []
    if pinned.get("trace_sha256") != recomputed["trace_sha256"]:
        problems.append(
            f"corpus fixture changed on disk (sha256 "
            f"{recomputed['trace_sha256'][:12]}..., "
            f"pinned {str(pinned.get('trace_sha256'))[:12]}...)"
        )
        return problems
    for scalar in ("rows", "jobs_replayed", "methods", "ingest",
                   "replay_config", "coverage_pass"):
        if pinned.get(scalar) != recomputed[scalar]:
            problems.append(
                f"corpus.{scalar}: expected {pinned.get(scalar)!r}, "
                f"got {recomputed[scalar]!r}"
            )
            return problems
    want_q, got_q = pinned.get("queues", {}), recomputed["queues"]
    if sorted(want_q) != sorted(got_q):
        problems.append(
            f"corpus queue set changed: pinned {sorted(want_q)}, "
            f"got {sorted(got_q)}"
        )
        return problems
    for queue in sorted(want_q):
        if want_q[queue] != got_q[queue]:
            want_row, got_row = want_q[queue], got_q[queue]
            for key in sorted(set(want_row) | set(got_row)):
                if want_row.get(key) != got_row.get(key):
                    problems.append(
                        f"corpus.queues[{queue}].{key}: expected "
                        f"{want_row.get(key)!r}, got {got_row.get(key)!r}"
                    )
                    return problems
    return problems


def _first_divergence(
    name: str, pinned: Dict[str, Any], got: Dict[str, Any]
) -> Optional[str]:
    """Human-readable description of the first mismatch, or None."""
    for counter in ("n_evaluated", "n_correct", "n_skipped", "change_points"):
        if pinned[counter] != got[counter]:
            return (
                f"{name}.{counter}: expected {pinned[counter]}, "
                f"got {got[counter]}"
            )
    want_t, want_v = pinned["series_times"], pinned["series_values"]
    got_t, got_v = got["series_times"], got["series_values"]
    n = min(len(want_t), len(got_t))
    for i in range(n):
        if want_t[i] != got_t[i]:
            return (
                f"{name}.series_times[{i}]: expected {want_t[i]!r}, "
                f"got {got_t[i]!r}"
            )
        expected = want_v[i]
        actual = got_v[i]
        if abs(actual - expected) > _RTOL * max(abs(expected), abs(actual), 1.0):
            return (
                f"{name}.series_values[{i}] (t={want_t[i]}): expected "
                f"{expected!r}, got {actual!r} "
                f"(diff {actual - expected:+.3e}, rtol {_RTOL})"
            )
    if len(want_t) != len(got_t):
        return (
            f"{name}.series length: expected {len(want_t)} refits, "
            f"got {len(got_t)}"
        )
    return None


def compare_golden(
    pinned: Dict[str, Any], recomputed: Dict[str, Any]
) -> List[str]:
    """All first-divergence messages (one per diverging method)."""
    problems: List[str] = []
    if pinned.get("schema") != GOLDEN_SCHEMA:
        return [f"unknown golden schema {pinned.get('schema')!r}"]
    if pinned.get("trace_sha256") != recomputed["trace_sha256"]:
        problems.append(
            f"trace fixture changed on disk (sha256 {recomputed['trace_sha256'][:12]}..., "
            f"pinned {str(pinned.get('trace_sha256'))[:12]}...)"
        )
    for name in pinned.get("methods", {}):
        if name not in recomputed["methods"]:
            problems.append(f"method {name!r} no longer computed")
            continue
        diff = _first_divergence(
            name, pinned["methods"][name], recomputed["methods"][name]
        )
        if diff is not None:
            problems.append(diff)
    return problems


def _golden_pairs(directory: Path) -> List[Tuple[Path, Path]]:
    """(golden json, swf fixture) pairs found in ``directory``."""
    pairs = []
    for json_path in sorted(directory.glob("golden-*.json")):
        pinned = json.loads(json_path.read_text())
        pairs.append((json_path, directory / pinned["trace"]))
    return pairs


def verify_goldens(
    directory: Optional[Path] = None,
) -> Tuple[bool, Dict[str, Any]]:
    """Recompute every golden and report divergences (for ``bmbp verify``)."""
    directory = directory or golden_dir()
    if not directory.is_dir():
        return False, {"error": f"golden directory {directory} does not exist"}
    pairs = _golden_pairs(directory)
    if not pairs:
        return False, {"error": f"no golden-*.json fixtures in {directory}"}
    divergences: Dict[str, List[str]] = {}
    for json_path, trace_path in pairs:
        pinned = json.loads(json_path.read_text())
        if pinned.get("schema") == GOLDEN_SCHED_SCHEMA:
            problems = compare_sched_golden(pinned, compute_sched_golden(trace_path))
        elif pinned.get("schema") == GOLDEN_CORPUS_SCHEMA:
            problems = compare_corpus_golden(pinned, compute_corpus_golden(trace_path))
        else:
            problems = compare_golden(pinned, compute_golden(trace_path))
        if problems:
            divergences[json_path.name] = problems
    details: Dict[str, Any] = {
        "fixtures": [p.name for p, _ in pairs],
        "rtol": _RTOL,
    }
    if divergences:
        details["divergences"] = divergences
    return not divergences, details


def regenerate_goldens(directory: Optional[Path] = None) -> List[str]:
    """Recompute and rewrite every golden JSON; returns the files written."""
    directory = directory or golden_dir()
    written: List[str] = []
    for trace_path in sorted(directory.glob("trace-*.swf")):
        record = compute_golden(trace_path)
        out = directory / f"golden-{trace_path.stem.replace('trace-', '')}.json"
        out.write_text(json.dumps(record, indent=1) + "\n")
        written.append(out.name)
    sched_fixture = directory / SCHED_FIXTURE
    if sched_fixture.is_file():
        out = directory / "golden-sched.json"
        out.write_text(json.dumps(compute_sched_golden(sched_fixture), indent=1) + "\n")
        written.append(out.name)
    # The corpus fixture is gzipped SWF, so the trace-*.swf glob above
    # cannot pick it up — handled explicitly, like the sched job set.
    corpus_fixture = directory / CORPUS_FIXTURE
    if corpus_fixture.is_file():
        out = directory / "golden-corpus.json"
        out.write_text(
            json.dumps(compute_corpus_golden(corpus_fixture),
                       indent=1, sort_keys=True) + "\n"
        )
        written.append(out.name)
    return written
