"""Parallel experiment fan-out: per-queue replay work items for the engine.

The functions here are the *work items* the runtime engine
(:mod:`repro.runtime.engine`) distributes over worker processes.  Each one
is a pure, picklable, module-level function of ``(machine, queue, config)``
that regenerates its trace *worker-side* from the Table 1 spec — traces run
to hundreds of thousands of jobs, and shipping a queue name plus an
:class:`ExperimentConfig` across the process boundary is thousands of times
cheaper than pickling the trace itself.  Determinism is inherited from the
seeded generator: any worker (or the parent, in serial fallback) produces
bit-identical traces and therefore bit-identical replay results.

Every per-queue fan-out builds its tasks in :func:`run_per_queue`:
``run_queue_batch`` / ``run_bin_batch`` (Table 3/4 and the by-size Tables
5-7), the sensitivity grid and the clustering evaluation.  The table
batches layer three caches:

1. the in-process result cache in :mod:`repro.experiments.runner` (so e.g.
   Table 4 reuses Table 3's replays within one process),
2. the persistent on-disk cache keyed by content hash (so a warm rerun of
   ``python -m repro table3`` does zero replays), and
3. the process pool for whatever is left.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.core.predictor import QuantilePredictor
from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig
from repro.runtime import Task, run_tasks
from repro.simulator.replay import replay
from repro.simulator.results import ReplayResult
from repro.workloads.bins import PROC_BINS, bin_label, partition_by_bin
from repro.workloads.generator import _job_count
from repro.workloads.spec import QueueSpec, spec_for

__all__ = [
    "queue_work",
    "bin_cells_work",
    "run_queue_batch",
    "run_bin_batch",
    "run_per_queue",
    "prime",
]


def queue_work(
    machine: str, queue: str, config: ExperimentConfig
) -> Dict[str, ReplayResult]:
    """Replay one queue against the paper's three-method bank (worker-side)."""
    spec = spec_for(machine, queue)
    trace = runner.trace_for(spec, config)
    return replay(trace, runner.make_predictors(config), config.replay)


def bin_cells_work(
    machine: str, queue: str, config: ExperimentConfig
) -> Dict[str, Optional[Dict[str, ReplayResult]]]:
    """Replay every sufficiently populated processor bin of one queue.

    Returns ``{bin label: {method: result}}`` with ``None`` for cells under
    the pro-rated 1000-job threshold (the paper's "-" entries).  The whole
    queue is one work item so its trace is generated once per worker.
    """
    spec = spec_for(machine, queue)
    trace = runner.trace_for(spec, config)
    # Pro-rate the paper's 1000-job cell threshold by the queue's
    # *effective* generation scale (the min-jobs floor can inflate small
    # queues well beyond ``scale * job_count``), so a cell is kept exactly
    # when its paper-equivalent job count would reach 1000.
    threshold = max(60, int(round(1000 * len(trace) / spec.job_count)))
    parts = partition_by_bin(trace)
    cells: Dict[str, Optional[Dict[str, ReplayResult]]] = {}
    for proc_bin in PROC_BINS:
        label = bin_label(proc_bin)
        sub = parts[label]
        if len(sub) < threshold:
            cells[label] = None
            continue
        cells[label] = replay(sub, runner.make_predictors(config), config.replay)
    return cells


def prime(
    specs: List[QueueSpec],
    config: ExperimentConfig,
    predictors: Optional[Dict[str, QuantilePredictor]] = None,
) -> None:
    """Fill the per-process K′ and rare-event tables before a pool forks,
    so workers inherit them instead of rebuilding them per task (as
    ``corpus.replay_store`` does); pass it to ``run_tasks`` as
    ``before_fork``.

    ``predictors`` is a bank like the ones the tasks build (default: the
    paper's three methods at ``config``'s level); ``specs`` are the queues
    whose generated traces the tasks replay.
    """
    if specs:
        longest = max(_job_count(config.generator, spec) for spec in specs)
        bank = predictors if predictors is not None else runner.make_predictors(config)
        for predictor in bank.values():
            predictor.prime(longest)


def run_per_queue(
    func: Callable[[str, str, ExperimentConfig], Any],
    specs: List[QueueSpec],
    config: ExperimentConfig,
    bank: Optional[Dict[str, QuantilePredictor]] = None,
    jobs: Optional[int] = None,
) -> List[Any]:
    """Run ``func(machine, queue, config)`` for every spec through the
    engine; results in ``specs`` order.

    A pool start first primes ``bank`` (default: the paper's three
    methods) to the longest generated trace, see :func:`prime`.
    """
    tasks = [
        Task(func=func, args=(spec.machine, spec.queue, config),
             label=f"{spec.label}[{func.__name__}]")
        for spec in specs
    ]
    return run_tasks(
        tasks, jobs=jobs, before_fork=lambda: prime(specs, config, bank)
    )


def run_queue_batch(
    specs: List[QueueSpec],
    config: Optional[ExperimentConfig] = None,
    jobs: Optional[int] = None,
) -> List[Dict[str, ReplayResult]]:
    """Replay many queues through the engine; results in ``specs`` order.

    Queues already in the in-process cache are served from it; everything
    else goes through the disk cache and, on a miss, the worker pool.  All
    results are written back to the in-process cache so single-queue
    callers (:func:`repro.experiments.runner.run_queue`) reuse them.
    """
    config = config or ExperimentConfig()
    results = [
        runner.cached_queue_result(spec.machine, spec.queue, config)
        for spec in specs
    ]
    positions = [i for i, result in enumerate(results) if result is None]
    values = run_per_queue(
        queue_work, [specs[i] for i in positions], config, jobs=jobs
    )
    for i, value in zip(positions, values):
        spec = specs[i]
        runner.store_queue_result(spec.machine, spec.queue, config, value)
        results[i] = value
    return results


def run_bin_batch(
    specs: List[QueueSpec],
    config: Optional[ExperimentConfig] = None,
    jobs: Optional[int] = None,
) -> List[Dict[str, Optional[Dict[str, ReplayResult]]]]:
    """Per-bin replays for many queues; one work item per queue."""
    return run_per_queue(
        bin_cells_work, specs, config or ExperimentConfig(), jobs=jobs
    )
