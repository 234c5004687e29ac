"""Parallel task engine for replay experiments.

The paper's evaluation is embarrassingly parallel: 32 independent
machine/queue traces, each replayed against a bank of predictors.  This
engine fans such work items out over a ``concurrent.futures``
``ProcessPoolExecutor`` while keeping three guarantees the experiments
rely on:

* **Determinism** — results come back in task-submission order, and every
  work function is a pure function of its arguments (traces are generated
  *worker-side* from the queue spec, so multi-hundred-thousand-job traces
  are never pickled across the process boundary).
* **Result reuse** — each task is first looked up in the versioned
  persistent cache (:mod:`repro.runtime.cache`); only misses reach the
  pool, and their results are written back for the next process.
* **Graceful degradation** — ``jobs=1``, a single pending task, or any
  failure to stand up a process pool (restricted sandboxes, missing
  semaphores) silently falls back to in-process serial execution with
  identical results.

Worker failures are never swallowed: the remote traceback travels back as
a :class:`WorkerError` raised in the parent, in task order.

This is the package's only fan-out path: the experiment batches
(:mod:`repro.experiments.parallel`), corpus store replays and bare corpus
views all hand their units to :func:`run_tasks`.  Caching is decided per
call (``cache=``), never per task; a failed task is never stored.  In
:class:`EngineStats` every cache miss is one executed task, which the
``summary()`` line reports as ``replays=``.

Worker count resolves as: explicit ``jobs=`` argument, else
:func:`configure`'s setting (the CLI's ``--jobs``), else the ``BMBP_JOBS``
environment variable, else 1 (serial).
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.runtime import faults
from repro.runtime.cache import DiskCache, cache_enabled_from_env, canonical_key

__all__ = [
    "EngineStats",
    "Task",
    "TaskTiming",
    "WorkerError",
    "clear_disk_cache",
    "configure",
    "reset_configuration",
    "reset_stats",
    "resolve_jobs",
    "run_tasks",
    "stats",
]


@dataclass(frozen=True)
class Task:
    """One unit of work: a picklable module-level callable plus arguments.

    ``func`` must be importable by ``module:qualname`` in a worker process
    (i.e. defined at module top level); its arguments must be picklable and
    must *fully determine* the result — the persistent cache is keyed by
    ``(func identity, args, cache version)`` and nothing else.

    ``cache_key`` overrides that default key.  Callers whose arguments
    name data *by reference* (the corpus planner passes a store path, not
    the rows) supply a content-addressed key instead — e.g.
    :func:`repro.runtime.cache.corpus_unit_key` — so cached results
    follow the data, not the path it happened to live at.
    """

    func: Callable[..., Any]
    args: Tuple = ()
    label: str = ""
    cache_key: Optional[str] = None

    @property
    def func_id(self) -> str:
        return f"{self.func.__module__}:{self.func.__qualname__}"

    def key(self) -> str:
        if self.cache_key is not None:
            return self.cache_key
        return canonical_key(self.func_id, self.args)


@dataclass(frozen=True)
class TaskTiming:
    """Wall-clock record of one task (cache hits cost ~0 and say so)."""

    label: str
    seconds: float
    cached: bool


@dataclass
class EngineStats:
    """Cumulative counters since the last :func:`reset_stats`."""

    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    timings: List[TaskTiming] = field(default_factory=list)

    def snapshot(self) -> "EngineStats":
        return replace(self, timings=list(self.timings))

    def since(self, earlier: "EngineStats") -> "EngineStats":
        """Delta between this snapshot and an earlier one."""
        return EngineStats(
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            seconds=self.seconds - earlier.seconds,
            timings=self.timings[len(earlier.timings):],
        )

    def summary(self) -> str:
        return (
            f"tasks={self.cache_hits + self.cache_misses} "
            f"cache_hits={self.cache_hits} replays={self.cache_misses} "
            f"seconds={self.seconds:.2f}"
        )


class WorkerError(RuntimeError):
    """A task raised in a worker; carries the remote traceback verbatim."""

    def __init__(self, label: str, remote_traceback: str):
        super().__init__(
            f"experiment task {label!r} failed in worker:\n{remote_traceback}"
        )
        self.label = label
        self.remote_traceback = remote_traceback


@dataclass
class _Settings:
    jobs: Optional[int] = None
    cache: Optional[bool] = None
    cache_dir: Optional[str] = None


_settings = _Settings()
_stats = EngineStats()


def configure(
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    cache_dir: Optional[str] = None,
) -> None:
    """Set process-wide engine defaults (the CLI's ``--jobs``/``--no-cache``).

    ``None`` leaves a setting unchanged at its environment-derived default.
    """
    if jobs is not None:
        _settings.jobs = max(1, int(jobs))
    if cache is not None:
        _settings.cache = bool(cache)
    if cache_dir is not None:
        _settings.cache_dir = str(cache_dir)


def reset_configuration() -> None:
    """Drop :func:`configure` overrides, restoring env-derived defaults."""
    _settings.jobs = None
    _settings.cache = None
    _settings.cache_dir = None


def stats() -> EngineStats:
    """A snapshot of the cumulative engine counters."""
    return _stats.snapshot()


def reset_stats() -> None:
    _stats.cache_hits = 0
    _stats.cache_misses = 0
    _stats.seconds = 0.0
    _stats.timings = []


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: argument > configure() > $BMBP_JOBS > 1."""
    if jobs is not None:
        return max(1, int(jobs))
    if _settings.jobs is not None:
        return _settings.jobs
    env = os.environ.get("BMBP_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _cache_active(cache: Optional[bool]) -> bool:
    if cache is not None:
        return cache
    if _settings.cache is not None:
        return _settings.cache
    return cache_enabled_from_env()


def _disk_cache() -> DiskCache:
    return DiskCache(_settings.cache_dir)


def clear_disk_cache() -> int:
    """Wipe the persistent replay cache; returns the entry count removed."""
    return _disk_cache().clear()


def _invoke(task: Task) -> Tuple[str, Any, float]:
    """Run one task; never raises (failures return the remote traceback)."""
    started = time.perf_counter()
    fault = faults.fire("engine.worker")
    if fault == "die" and faults.in_worker_process():
        # Injected pool-worker death (the parent must fall back to serial;
        # the guard keeps the same schedule harmless during that fallback).
        os._exit(1)
    try:
        if fault == "raise":
            raise RuntimeError("injected engine.worker fault")
        value = task.func(*task.args)
    except BaseException:
        return ("err", traceback.format_exc(), time.perf_counter() - started)
    return ("ok", value, time.perf_counter() - started)


def _pool_context():
    """Prefer fork on platforms that have it: no re-import, fast start."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return None


def _run_serial(
    tasks: Sequence[Task],
    on_done: Optional[Callable[[], None]] = None,
) -> List[Tuple[str, Any, float]]:
    outcomes = []
    for task in tasks:
        outcomes.append(_invoke(task))
        if on_done is not None:
            on_done()
    return outcomes


def _run_pool(
    tasks: Sequence[Task],
    jobs: int,
    on_done: Optional[Callable[[], None]] = None,
) -> List[Tuple[str, Any, float]]:
    """Fan out over a process pool; any pool-level failure falls back serial."""
    try:
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), mp_context=_pool_context()
        ) as pool:
            futures = [pool.submit(_invoke, task) for task in tasks]
            if on_done is not None:
                for _ in as_completed(futures):
                    on_done()
            return [future.result() for future in futures]
    except Exception as exc:  # BrokenProcessPool, PicklingError, OSError, ...
        print(
            f"[bmbp] process pool unavailable ({type(exc).__name__}: {exc}); "
            "falling back to serial execution",
            file=sys.stderr,
        )
        return _run_serial(tasks, on_done)


def run_tasks(
    tasks: Sequence[Task],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    progress: Optional[Callable[[int, int], None]] = None,
    before_fork: Optional[Callable[[], None]] = None,
) -> List[Any]:
    """Execute tasks and return their results in task order.

    Cached results are served from the persistent store without touching
    the pool; only misses are executed (in parallel when ``jobs > 1``).
    Raises :class:`WorkerError` for the first failing task, in task order.

    ``progress`` is called as ``progress(done, total)`` after each task
    settles (cache hits count immediately, pool tasks as they complete —
    completion order, not submission order).  ``done`` is clamped to
    ``total``; the callback must tolerate being called from the main
    process while the pool is still running.

    ``before_fork`` runs here just before a pool starts for the cache
    misses, and not at all when every task hits the cache or the misses
    run serially: fill per-process memos there so forked workers inherit
    them instead of each building its own.
    """
    tasks = list(tasks)
    results: List[Any] = [None] * len(tasks)
    use_cache = _cache_active(cache)
    store = _disk_cache() if use_cache else None
    started = time.perf_counter()

    done_count = 0

    def _tick() -> None:
        nonlocal done_count
        done_count += 1
        if progress is not None:
            progress(min(done_count, len(tasks)), len(tasks))

    pending: List[Tuple[int, Task]] = []
    keys = [task.key() for task in tasks] if store is not None else []
    for i, task in enumerate(tasks):
        if store is not None:
            hit, value = store.get(keys[i])
            if hit:
                results[i] = value
                _stats.cache_hits += 1
                _stats.timings.append(
                    TaskTiming(label=task.label or task.func_id,
                               seconds=0.0, cached=True)
                )
                _tick()
                continue
        pending.append((i, task))

    effective_jobs = resolve_jobs(jobs)
    to_run = [task for _, task in pending]
    on_done = _tick if progress is not None else None
    if len(to_run) > 1 and effective_jobs > 1:
        if before_fork is not None:
            before_fork()
        outcomes = _run_pool(to_run, effective_jobs, on_done)
    else:
        outcomes = _run_serial(to_run, on_done)

    error: Optional[WorkerError] = None
    for (i, task), (status, value, seconds) in zip(pending, outcomes):
        label = task.label or task.func_id
        if status == "err":
            if error is None:
                error = WorkerError(label, value)
            continue
        results[i] = value
        _stats.cache_misses += 1
        _stats.timings.append(TaskTiming(label=label, seconds=seconds, cached=False))
        if store is not None:
            store.put(keys[i], value)
    _stats.seconds += time.perf_counter() - started
    if error is not None:
        raise error
    return results
