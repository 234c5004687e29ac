"""Million-job replays of corpus stores through the epoch-batched kernel.

:func:`replay_store` drives a whole site — every queue above a minimum
size — through the epoch-batched replay kernel with the full 9-method
bank (or any subset), producing per-queue coverage rows for the paper's
(q=0.95, C=0.95) claim: a queue's BMBP row *passes* when the Wilson
upper bound on its empirical fraction-correct reaches the target
quantile (the same acceptance rule as the conformance harness).

Parallel zero-copy fan-out
--------------------------
The replay is planned as independent **work units**.  A unit names its
data by reference only — *(store path, queue, row range)* — and the
worker process re-opens the ``np.memmap`` columns itself through the
store's slice-open API (:meth:`CorpusStore.queue_slice`), so no trace
data is ever pickled across the process boundary; what comes back is a
compact per-queue result row.  Every unit, whatever the input, runs
through the runtime engine (:func:`repro.runtime.engine.run_tasks`):
``jobs=1`` (the default) runs the identical unit function in-process
and is the serial oracle; ``jobs>1`` fans the same units out over a
process pool, and because every unit is a pure function of its
arguments the merged report is bit-identical either way
(property-tested, golden-pinned).  A bare :class:`CorpusView` input
hands the view itself to the unit function and runs at ``jobs=1``,
uncached: it has no directory to re-open and no manifest to key on.

Scheduling is long-tail aware: units are dispatched largest-first, and
a queue larger than ``split_threshold`` is sharded into independent
chunks.  Chunk ``i`` opens ``warmup`` extra rows of history before its
scored range and replays them as training
(``ReplayConfig.training_jobs``), so each chunk quotes from genuine
preceding history; chunks merge deterministically (counts sum, ratio
multisets concatenate in chunk order before the median).  The chunked
decomposition *is* the definition of a split queue's replay — the
serial path executes the same plan — and the default threshold keeps
ordinary queues unsplit.

Incremental result cache
------------------------
Each unit is keyed content-addressed
(:func:`repro.runtime.cache.corpus_unit_key`): the manifest's
per-column SHA-256s, a digest of the exact rows the unit replays, the
unit geometry, and the kernel/bank version — never the store path.  A
re-replay after ingesting one new site (or touching one queue's rows)
recomputes only the dirty units; everything else is served from the
persistent :class:`~repro.runtime.cache.DiskCache` in milliseconds.
Hit/miss counts and a per-unit timing ledger land in the report's
``provenance`` section.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.corpus.store import CorpusStore, CorpusView

__all__ = [
    "DEFAULT_SPLIT_THRESHOLD",
    "ReplayUnit",
    "plan_units",
    "progress_printer",
    "replay_store",
]

#: Queues smaller than this are skipped in store replays (mirrors the
#: paper's minimum-cell rule, scaled for archive-size logs).
DEFAULT_MIN_QUEUE_JOBS = 1000

#: Queues larger than this are sharded into independent history-prefixed
#: chunk units.  High enough that ordinary archive queues replay as one
#: unit (keeping their rows identical to the pre-chunking harness), low
#: enough that a single dominant queue cannot serialize a fan-out.
DEFAULT_SPLIT_THRESHOLD = 150_000


# --------------------------------------------------------------------------
# Unit planning.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayUnit:
    """One schedulable replay unit: a queue, or one chunk of a large queue.

    ``lo:hi`` is the *scored* row range, counted in the queue's submit
    order; ``warmup`` rows immediately before ``lo`` are opened with the
    slice and replayed as training history (``warmup == 0`` means the
    unit trains on its own leading ``training_fraction``, exactly like a
    whole-queue replay).
    """

    site: str
    queue: str
    lo: int
    hi: int
    warmup: int
    chunk: int
    n_chunks: int
    queue_rows: int

    @property
    def scored_rows(self) -> int:
        return self.hi - self.lo

    @property
    def cost(self) -> int:
        """Rows actually replayed (warmup included) — the schedule key."""
        return self.warmup + self.scored_rows

    @property
    def label(self) -> str:
        return f"{self.site}/{self.queue}#{self.chunk}[{self.lo}:{self.hi}]"


def plan_units(
    view: CorpusView,
    *,
    site: str,
    min_queue_jobs: int,
    split_threshold: int,
    training_fraction: float = 0.10,
) -> Tuple[List[ReplayUnit], Dict[str, int]]:
    """Decompose a site into replay units, largest-cost-first.

    Returns ``(units, skipped)`` where ``skipped`` maps too-small queue
    names to their row counts.  The plan is a pure function of the
    queue sizes and the thresholds, so serial and parallel runs — and
    repeated runs against an unchanged store — always execute and merge
    the identical unit set.
    """
    split_threshold = max(int(split_threshold), 1)
    units: List[ReplayUnit] = []
    skipped: Dict[str, int] = {}
    for queue in view.queues():
        n = view.queue_rows(queue)
        if n < min_queue_jobs:
            skipped[queue] = n
            continue
        if n <= split_threshold:
            units.append(ReplayUnit(site, queue, 0, n, 0, 0, 1, n))
            continue
        k = -(-n // split_threshold)  # ceil
        bounds = [round(i * n / k) for i in range(k + 1)]
        for i in range(k):
            lo, hi = bounds[i], bounds[i + 1]
            # Chunk 0 trains on its own leading fraction (exactly like an
            # unsplit queue); later chunks open a deterministic slice of
            # real preceding history instead, sized like that fraction.
            warmup = 0 if i == 0 else min(
                lo, max(1, int(np.ceil(training_fraction * (hi - lo))))
            )
            units.append(ReplayUnit(site, queue, lo, hi, warmup, i, k, n))
    # Largest units first so a long-tail queue starts immediately and
    # stragglers are the small cheap units; ties break on stable names
    # to keep the dispatch order deterministic.
    units.sort(key=lambda u: (-u.cost, u.queue, u.chunk))
    return units, skipped


# --------------------------------------------------------------------------
# Unit execution (runs in pool workers — module-level and picklable).
# --------------------------------------------------------------------------


def _replay_unit_task(
    source: Union[str, CorpusView],
    queue: str,
    lo: int,
    hi: int,
    warmup: int,
    epoch: float,
    methods: Optional[Tuple[str, ...]],
    record_series: bool,
    chunked: bool,
) -> Dict[str, Any]:
    """Slice-open one unit, replay it and return its compact result row.

    ``source`` is a store path or a bare :class:`CorpusView`.  A pool
    worker is handed the path and re-opens the store's memmap columns
    itself, so the fan-out ships only this argument tuple — zero pickled
    rows, zero copies beyond the one the queue mask materializes locally.

    Chunked units additionally return their per-method ratio arrays so
    the parent can merge medians across chunks; whole-queue units fold
    the median locally and stay compact.
    """
    from repro.core.bank import HEADLINE, make_bank
    from repro.runtime import faults
    from repro.simulator.replay import ReplayConfig, replay

    if isinstance(source, str):
        source = CorpusStore(source)
    qview = source.queue_slice(queue, lo - warmup, hi)

    action = faults.fire("corpus.replay.unit")
    if action == "die":
        faults.crash()
    elif action == "raise":
        raise RuntimeError("injected corpus.replay.unit fault")

    config = ReplayConfig(
        epoch=epoch,
        record_series=record_series,
        training_jobs=warmup or None,
    )
    results = replay(qview, make_bank(methods or HEADLINE), config)
    row: Dict[str, Any] = {"methods": {}}
    for name in sorted(results):
        res = results[name]
        entry: Dict[str, Any] = {
            "evaluated": res.n_evaluated,
            "correct": res.n_correct,
        }
        if chunked:
            entry["ratios"] = np.asarray(res.ratios, dtype=np.float64)
        else:
            entry["fraction_correct"] = round(res.fraction_correct, 5)
            entry["median_ratio"] = round(res.median_ratio, 5)
        if record_series:
            entry["series_times"] = np.asarray(res.series_times, dtype=np.float64)
            entry["series_values"] = np.asarray(res.series_values, dtype=np.float64)
        row["methods"][name] = entry
    return row


# --------------------------------------------------------------------------
# Merge + report assembly.
# --------------------------------------------------------------------------


def _merge_queue_rows(
    unit_rows: List[Tuple[ReplayUnit, Dict[str, Any]]],
    record_series: bool,
) -> Dict[str, Any]:
    """Fold one queue's unit results into its report row, deterministically.

    Chunk order (by ``lo``) fixes the concatenation order of ratio and
    series arrays, so the merged medians and series are identical no
    matter which worker finished first.
    """
    from repro.core.bank import CONFIDENCE, QUANTILE
    from repro.stats.proportion import wilson_interval

    unit_rows = sorted(unit_rows, key=lambda pair: pair[0].lo)
    first_unit = unit_rows[0][0]
    qrep: Dict[str, Any] = {"jobs": first_unit.queue_rows, "methods": {}}
    if first_unit.n_chunks > 1:
        qrep["chunks"] = first_unit.n_chunks
    method_names = sorted(unit_rows[0][1]["methods"])
    for name in method_names:
        evaluated = sum(r["methods"][name]["evaluated"] for _, r in unit_rows)
        correct = sum(r["methods"][name]["correct"] for _, r in unit_rows)
        if first_unit.n_chunks > 1:
            ratios = np.concatenate(
                [np.asarray(r["methods"][name]["ratios"]) for _, r in unit_rows]
            ) if unit_rows else np.empty(0)
            finite = ratios[np.isfinite(ratios)]
            median = float(np.median(finite)) if finite.size else float("nan")
            fraction = correct / evaluated if evaluated else float("nan")
            entry = {
                "evaluated": evaluated,
                "correct": correct,
                "fraction_correct": round(fraction, 5),
                "median_ratio": round(median, 5),
            }
        else:
            entry = dict(unit_rows[0][1]["methods"][name])
        entry.pop("ratios", None)
        if record_series:
            entry["series_times"] = np.concatenate(
                [np.asarray(r["methods"][name]["series_times"]) for _, r in unit_rows]
            ).tolist()
            entry["series_values"] = np.concatenate(
                [np.asarray(r["methods"][name]["series_values"]) for _, r in unit_rows]
            ).tolist()
        qrep["methods"][name] = entry
    bmbp = qrep["methods"].get("bmbp")
    if bmbp is not None and bmbp["evaluated"]:
        low, high = wilson_interval(
            bmbp["correct"], bmbp["evaluated"], CONFIDENCE
        )
        qrep["coverage"] = {
            "quantile": QUANTILE,
            "confidence": CONFIDENCE,
            "evaluated": bmbp["evaluated"],
            "correct": bmbp["correct"],
            "fraction": round(bmbp["correct"] / bmbp["evaluated"], 5),
            "wilson_low": round(low, 5),
            "wilson_high": round(high, 5),
            "passed": high >= QUANTILE,
        }
    return qrep


def progress_printer(stream=None) -> Callable[[int, int], None]:
    """A ``run_tasks`` progress callback: one stderr line, units + ETA."""
    stream = stream or sys.stderr
    started = time.perf_counter()

    def callback(done: int, total: int) -> None:
        elapsed = time.perf_counter() - started
        if done and done < total:
            eta = elapsed / done * (total - done)
            tail = f"ETA {eta:.0f}s"
        else:
            tail = f"{elapsed:.1f}s"
        end = "\n" if done >= total else "\r"
        print(
            f"[bmbp] corpus replay: {done}/{total} units ({tail})",
            end=end, file=stream, flush=True,
        )

    return callback


def replay_store(
    store: Union[CorpusStore, CorpusView],
    *,
    epoch: float = 300.0,
    methods: Optional[Sequence[str]] = None,
    min_queue_jobs: int = DEFAULT_MIN_QUEUE_JOBS,
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    split_threshold: int = DEFAULT_SPLIT_THRESHOLD,
    record_series: bool = False,
    progress: Optional[Callable[[int, int], None]] = None,
) -> Dict[str, Any]:
    """Replay every sufficiently large queue of a site, scoring coverage.

    Returns a JSON-friendly report::

        {site, rows, jobs_replayed, seconds, jobs_per_s, methods,
         queues: {name: {jobs, methods: {m: {evaluated, fraction_correct,
                                             median_ratio}},
                         coverage: {quantile, confidence, evaluated,
                                    correct, fraction, wilson_low,
                                    wilson_high, passed}}},
         provenance: {jobs, cpu_count, split_threshold,
                      cache: {enabled, hits, misses},
                      store: {path, rows, column_sha256},
                      units: [{unit, queue, chunk, rows, warmup, seconds,
                               cached}]},
         coverage_pass: bool}

    The per-queue ``coverage`` row scores the BMBP method against the
    (0.95, 0.95) claim with the Wilson acceptance rule.

    ``jobs`` is the worker count (argument > ``runtime.configure`` >
    ``$BMBP_JOBS`` > 1); the serial default is the oracle the parallel
    path is property-tested against.  ``cache=None`` follows the
    engine-wide setting; a :class:`CorpusView` input (no backing store
    directory) always runs its units in-process and uncached, since
    there is no path for workers to re-open nor manifest to key on.
    """
    from repro import runtime
    from repro.core.bank import HEADLINE, make_bank
    from repro.runtime.cache import corpus_unit_key
    from repro.runtime.engine import Task, resolve_jobs

    is_store = isinstance(store, CorpusStore)
    view = store.view() if is_store else store
    site = getattr(store, "site", view.name)
    methods_tuple: Optional[Tuple[str, ...]] = None
    if methods:
        unknown = [m for m in methods if m not in HEADLINE]
        if unknown:
            raise KeyError(
                f"unknown method(s) {unknown}; bank has {sorted(HEADLINE)}"
            )
        methods_tuple = tuple(sorted(methods))

    units, skipped = plan_units(
        view,
        site=site,
        min_queue_jobs=min_queue_jobs,
        split_threshold=split_threshold,
    )

    report: Dict[str, Any] = {
        "site": site,
        "rows": len(view),
        "queues": {name: {"jobs": n, "skipped": True}
                   for name, n in skipped.items()},
        "methods": [],
        "jobs_replayed": 0,
        "min_queue_jobs": min_queue_jobs,
    }
    started = time.perf_counter()
    before = runtime.stats()

    if is_store:
        source: Union[str, CorpusView] = str(store.path)
        hot_sha = {
            name: sha for name, sha in store.column_sha256().items()
            if name in ("submit", "wait", "procs", "queue")
        }
        unit_config = {
            "epoch": epoch,
            "methods": list(methods_tuple) if methods_tuple else None,
            "record_series": record_series,
        }
    else:
        # A bare view has no store directory for a worker to re-open and
        # no manifest to key a cache on: its units run in-process, uncached.
        source, jobs, cache = view, 1, False

    tasks = []
    for unit in units:
        cache_key = None
        if is_store:
            cache_key = corpus_unit_key(
                site=site,
                queue=unit.queue,
                rows={"lo": unit.lo, "hi": unit.hi,
                      "warmup": unit.warmup, "chunk": unit.chunk,
                      "n_chunks": unit.n_chunks,
                      "queue_rows": unit.queue_rows},
                data_digest=view.queue_digest(
                    unit.queue, unit.lo - unit.warmup, unit.hi),
                column_sha256=hot_sha,
                config=unit_config,
            )
        tasks.append(Task(
            func=_replay_unit_task,
            args=(source, unit.queue, unit.lo, unit.hi, unit.warmup,
                  epoch, methods_tuple, record_series, unit.n_chunks > 1),
            label=unit.label,
            cache_key=cache_key,
        ))

    def prime() -> None:
        # Units fill per-process memos (K′ factors, the rare-event table)
        # that a pool's workers would otherwise each rebuild and drop on
        # every replay: fill them here, once, for the longest unit, just
        # before the fan-out forks.
        longest = max(unit.cost for unit in units)
        for predictor in make_bank(methods_tuple or HEADLINE).values():
            predictor.prime(longest)

    unit_results = runtime.run_tasks(
        tasks, jobs=jobs, cache=cache, progress=progress, before_fork=prime
    )
    delta = runtime.stats().since(before)
    timing_by_label = {t.label: t for t in delta.timings}

    by_queue: Dict[str, List[Tuple[ReplayUnit, Dict[str, Any]]]] = {}
    for unit, row in zip(units, unit_results):
        by_queue.setdefault(unit.queue, []).append((unit, row))

    all_pass = True
    for queue in view.queues():
        if queue not in by_queue:
            continue
        qrep = _merge_queue_rows(by_queue[queue], record_series)
        if not report["methods"]:
            report["methods"] = sorted(qrep["methods"])
        cov = qrep.get("coverage")
        if cov is not None:
            all_pass = all_pass and cov["passed"]
        report["jobs_replayed"] += qrep["jobs"]
        report["queues"][queue] = qrep

    report["seconds"] = round(time.perf_counter() - started, 3)
    report["jobs_per_s"] = round(
        report["jobs_replayed"] / report["seconds"], 1
    ) if report["seconds"] > 0 else 0.0
    report["coverage_pass"] = all_pass
    provenance: Dict[str, Any] = {
        "jobs": resolve_jobs(jobs),
        "cpu_count": os.cpu_count(),
        "split_threshold": split_threshold,
        "cache": {
            "enabled": bool(runtime.engine._cache_active(cache)),
            "hits": delta.cache_hits,
            "misses": delta.cache_misses,
        },
        "units": [
            {
                "unit": unit.label,
                "queue": unit.queue,
                "chunk": unit.chunk,
                "rows": unit.scored_rows,
                "warmup": unit.warmup,
                "seconds": round(timing_by_label[unit.label].seconds, 4),
                "cached": timing_by_label[unit.label].cached,
            }
            for unit in units
        ],
    }
    if is_store:
        provenance["store"] = {
            "path": str(store.path),
            "rows": store.rows,
            "column_sha256": store.column_sha256(),
        }
    report["provenance"] = provenance
    return report


def _strip_volatile(report: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic core of a replay report (identity comparisons)."""
    return {
        "site": report["site"],
        "rows": report["rows"],
        "jobs_replayed": report["jobs_replayed"],
        "methods": report["methods"],
        "queues": report["queues"],
        "coverage_pass": report["coverage_pass"],
    }

