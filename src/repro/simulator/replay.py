"""Trace-replay simulator (Section 5.1 of the paper).

The simulator replays a historical (submit_time, wait, procs) trace against
one or more predictors, reproducing the information flow a live deployment
would see:

* A submitted job receives the predictor's *current* quoted bound — the one
  computed at the last refit epoch — and enters a pending queue.
* A job's wait time becomes visible history only when the job *starts*
  (``submit + wait``); the predictor is never allowed to peek at a pending
  job's eventual wait.
* Predictors refit on a fixed epoch grid (300 seconds in the paper),
  modelling the periodic state dump a real installation would provide,
  rather than refitting on every event.  Epochs with no newly visible waits
  are skipped — the refit would be a no-op — which keeps multi-year replays
  fast without changing any quoted value.
* The first ``training_fraction`` of the jobs (10% in the paper) only feeds
  history; successes and failures are not recorded.  When training ends,
  each predictor gets ``finish_training()`` (BMBP uses it to set its
  rare-event threshold from the training autocorrelation).

Scoring: an upper-bound prediction is *correct* when the observed wait is at
most the bound (and symmetrically for lower bounds); the recorded accuracy
ratio is actual/predicted (Table 4's metric).

Two engines implement these semantics:

* ``"batched"`` (the default) — the prefix-kernel engine.  A predictor
  whose class defines a prefix kernel (see
  :func:`~repro.core.predictor.prefix_kernel`) is replayed without
  feeding it events: the refit schedule, i.e. how many drained waits each
  refit sees, is computed from the trace with a few vectorized searches;
  the kernel yields the quote at every refit (in one call without a
  change-point detector, and one retained window at a time, restarting
  at each fire, with one); and the evaluated jobs are scored in one numpy
  pass.  The rest of a bank (the sketch methods, sliding windows, test
  oracles and doubles) runs on the reference engine as its own sub-bank:
  each predictor sees the event stream alone, so splitting a bank moves
  no result.
* ``"reference"`` — the per-event loop, kept as the semantic oracle
  (``bmbp verify`` and the engine-identity property tests compare against
  it), as the implementation for ``epoch=0`` (per-event refits have no
  schedule to batch), and for the predictors without a kernel, and those
  with an ``observe`` override that is not registered as batch-aware (a
  test double logging its inputs, which must see each event).

See ``docs/performance.md`` for the kernel design and measured speedups.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.changepoint import first_fire_index, trailing_run
from repro.core.predictor import (
    BoundKind,
    QuantilePredictor,
    observe_is_batch_aware,
    prefix_kernel,
)
from repro.simulator.results import JobRecord, ReplayResult
from repro.stats.order_stats import RangeSelect
from repro.workloads.trace import Trace

__all__ = ["ENGINES", "ReplayConfig", "replay", "replay_by_queue", "replay_single"]

#: Recognized replay engines, in default-preference order.
ENGINES = ("batched", "reference")

@dataclass(frozen=True)
class ReplayConfig:
    """Replay parameters; defaults are the paper's.

    ``training_jobs`` overrides the fraction-derived training cutoff with
    an absolute job count (clamped to the trace length).  The parallel
    corpus planner uses it for history-prefixed chunk units: a chunk's
    slice starts ``warmup`` rows before its scored range, and exactly
    those ``warmup`` jobs must feed history without being evaluated.
    """

    epoch: float = 300.0
    training_fraction: float = 0.10
    record_series: bool = False
    series_window: Optional[Tuple[float, float]] = None
    record_jobs: bool = False
    training_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epoch < 0.0:
            raise ValueError(f"epoch must be non-negative, got {self.epoch}")
        if not 0.0 <= self.training_fraction < 1.0:
            raise ValueError(
                f"training_fraction must be in [0, 1), got {self.training_fraction}"
            )
        if self.training_jobs is not None and self.training_jobs < 0:
            raise ValueError(
                f"training_jobs must be non-negative, got {self.training_jobs}"
            )

    def resolve_training(self, n: int) -> int:
        """The training cutoff for an ``n``-job trace under this config."""
        if self.training_jobs is not None:
            return min(self.training_jobs, n)
        return math.ceil(self.training_fraction * n)


def _score(kind: BoundKind, actual: float, predicted: float) -> Tuple[bool, float]:
    """(correct, actual/predicted ratio) for one evaluated job."""
    if kind is BoundKind.UPPER:
        correct = actual <= predicted
    else:
        correct = actual >= predicted
    if predicted > 0.0:
        ratio = actual / predicted
    else:
        ratio = 1.0 if actual == 0.0 else math.inf
    return correct, ratio


def _make_results(
    trace: Trace, predictors: Dict[str, QuantilePredictor]
) -> Dict[str, ReplayResult]:
    return {
        name: ReplayResult(
            trace_name=trace.name,
            predictor_name=getattr(predictors[name], "name", name),
            quantile=predictors[name].quantile,
            confidence=predictors[name].confidence,
        )
        for name in predictors
    }


def replay(
    trace: Trace,
    predictors: Dict[str, QuantilePredictor],
    config: Optional[ReplayConfig] = None,
    engine: Optional[str] = None,
) -> Dict[str, ReplayResult]:
    """Replay a trace against several predictors simultaneously.

    All predictors see the identical event stream (matching the paper's
    method comparison); each is scored independently.  The predictors are
    mutated — pass fresh instances per replay.

    ``engine`` selects the implementation (``"batched"``, the default, or
    ``"reference"``).  Both engines produce results that agree to
    floating-point roundoff (identical counts and change points; bounds
    within 1e-9 relative, weibull's within its documented band).  The
    batched engine replays the predictors it has no kernel for on the
    reference engine.

    Returns a dict keyed like ``predictors`` with one
    :class:`ReplayResult` each.
    """
    config = config or ReplayConfig()
    engine = engine or ENGINES[0]
    if engine not in ENGINES:
        raise ValueError(f"replay engine must be one of {ENGINES}, got {engine!r}")
    kernels = {}
    if engine == "batched" and config.epoch > 0.0 and len(trace) > 0:
        for name, predictor in predictors.items():
            kernel = prefix_kernel(predictor)
            if kernel is not None and observe_is_batch_aware(predictor):
                kernels[name] = kernel
    rest = {name: pr for name, pr in predictors.items() if name not in kernels}
    results: Dict[str, ReplayResult] = {}
    if kernels:
        served = {name: predictors[name] for name in kernels}
        results.update(_replay_batched(trace, served, kernels, config))
    if rest:
        results.update(_replay_reference(trace, rest, config))
    return {name: results[name] for name in predictors}


# --------------------------------------------------------------------------
# Reference engine: the per-event oracle.
# --------------------------------------------------------------------------


def _replay_reference(
    trace: Trace,
    predictors: Dict[str, QuantilePredictor],
    config: ReplayConfig,
) -> Dict[str, ReplayResult]:
    names = list(predictors)
    results = _make_results(trace, predictors)
    n = len(trace)
    if n == 0:
        return results

    n_train = config.resolve_training(n)
    t0 = trace[0].submit_time
    epoch = config.epoch
    # Pending queue entries: (start_time, sequence, wait, {name: predicted}).
    # Training jobs carry no quotes, so they share a ``None`` payload
    # instead of allocating an all-None dict per job.
    pending: List[Tuple[float, int, float, Optional[Dict[str, Optional[float]]]]] = []
    last_boundary = -math.inf
    window = config.series_window

    def drain_starts(until: float) -> int:
        """Feed every job that starts at or before ``until`` to the predictors."""
        fed = 0
        while pending and pending[0][0] <= until:
            _, _, wait, predicted_map = heapq.heappop(pending)
            for name in names:
                predicted = predicted_map.get(name) if predicted_map else None
                predictors[name].observe(wait, predicted=predicted)
            fed += 1
        return fed

    def refit_all(at: float) -> None:
        for name in names:
            predictor = predictors[name]
            predictor.refit_if_stale()
            if config.record_series and (
                window is None or window[0] <= at < window[1]
            ):
                value = predictor.predict()
                if value is not None:
                    results[name].series_times.append(at)
                    results[name].series_values.append(value)

    for i, job in enumerate(trace):
        t = job.submit_time
        if epoch > 0.0:
            boundary = t0 + epoch * math.floor((t - t0) / epoch)
            if boundary > last_boundary:
                drain_starts(boundary)
                refit_all(boundary)
                last_boundary = boundary
            drain_starts(t)
        else:
            # Epoch 0: the (unrealizable) per-event refit deployment.
            drain_starts(t)
            refit_all(t)

        if i == n_train:
            for name in names:
                predictors[name].finish_training()

        evaluated = i >= n_train
        predicted_map: Optional[Dict[str, Optional[float]]] = (
            {} if evaluated else None
        )
        if evaluated:
            for name in names:
                value = predictors[name].predict()
                predicted_map[name] = value
                result = results[name]
                if value is None:
                    result.n_skipped += 1
                    continue
                correct, ratio = _score(predictors[name].kind, job.wait, value)
                result.record_outcome(ratio, correct)
                if config.record_jobs:
                    result.jobs.append(
                        JobRecord(
                            submit_time=t,
                            predicted=value,
                            actual=job.wait,
                            correct=correct,
                            procs=job.procs,
                        )
                    )
        heapq.heappush(pending, (job.start_time, i, job.wait, predicted_map))

    for name in names:
        predictor = predictors[name]
        if predictor.detector is not None:
            results[name].change_points = predictor.detector.change_points_seen
            results[name].miss_threshold = predictor.detector.threshold
    return results


# --------------------------------------------------------------------------
# Batched engine: the prefix kernels.
# --------------------------------------------------------------------------
#
# A kernel-served predictor's quote changes only at a refit, and each
# refit's quote is its kernel's value for the waits drained by then.  So
# the engine needs only the refit *schedule* — how many waits each refit
# saw — and that is a function of the trace alone:
#
#   * refits happen at epoch-segment boundaries (a segment starts whenever
#     a job's epoch boundary passes the last one, mirroring the reference
#     engine's ``boundary > last_boundary`` trigger), at ``finish_training``
#     and at the predictor's own change points (``_kernel_walk``);
#   * the reference engine's pending heap pops jobs in (start_time, index)
#     order, i.e. a stable argsort of start times, and every drain consumes
#     a prefix of it: at instant ``at`` before job ``i`` is submitted the
#     drained count is the number of jobs starting by ``at`` minus those
#     not yet submitted.  On a submit-ordered trace the latter can only be
#     zero-wait jobs submitted at ``at`` itself (``drained_by``).
#
# Scoring is one vectorized comparison and ratio pass per predictor over
# the evaluated jobs' quotes.


def _replay_batched(
    trace: Trace,
    predictors: Dict[str, QuantilePredictor],
    kernels: Dict[str, Callable[..., np.ndarray]],
    config: ReplayConfig,
) -> Dict[str, ReplayResult]:
    """Replay ``predictors``, each served by its entry in ``kernels``.

    Each predictor ends in the state the reference engine leaves: the
    retained waits as history, the last refit's quote, the count drained
    since that refit, the trained flag, the detector's threshold, run and
    fire count, and whatever per-refit state its kernel carries.
    """
    results = _make_results(trace, predictors)
    n = len(trace)
    n_train = config.resolve_training(n)
    epoch = config.epoch

    t = trace.submit_times
    waits = trace.waits
    t0 = float(t[0])
    start = t + waits
    order = np.argsort(start, kind="stable")
    start_sorted = start[order]
    zero_wait = np.concatenate(([0], np.cumsum(start == t)))

    def drained_by(at: np.ndarray, first: np.ndarray) -> np.ndarray:
        """Drained count at instant ``at`` before job ``first`` is submitted."""
        tie_end = np.maximum(np.searchsorted(t, at, side="right"), first)
        return np.searchsorted(start_sorted, at, side="right") - (
            zero_wait[tie_end] - zero_wait[first]
        )

    # The refit schedule: each segment's boundary refit, ``finish_training``
    # (at job ``n_train``'s submit, in segment ``trans``) and the drains
    # done when the last job is submitted.
    boundaries = t0 + epoch * np.floor((t - t0) / epoch)
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    if n > 1:
        is_new[1:] = boundaries[1:] > np.maximum.accumulate(boundaries)[:-1]
    seg_lo = np.flatnonzero(is_new)
    seg_hi = np.append(seg_lo[1:], n)
    seg_boundary = boundaries[seg_lo]
    n_seg = int(seg_lo.size)
    seg_p = drained_by(seg_boundary, seg_lo)
    n_drained = int(drained_by(t[n - 1:], np.array([n - 1]))[0])
    p_train: Optional[int] = None
    p_refit = int(seg_p[-1])
    if n_train < n:
        p_train = int(drained_by(t[n_train:n_train + 1], np.array([n_train]))[0])
        trans = int(np.searchsorted(seg_hi, n_train, side="right"))
        if trans == n_seg - 1:
            p_refit = p_train
    drain_order = order[:n_drained]
    drained = waits[drain_order]

    # Every refit prefix in refit order, ``p_refit`` (the latest) included.
    # ``finish_training`` refits even when the transition segment's
    # boundary refit saw the same prefix; that prefix then appears twice,
    # and the segments up to the transition read the first refit.
    lengths = np.unique(seg_p if p_train is None else np.append(seg_p, p_train))
    at_seg = np.searchsorted(lengths, seg_p)
    at_job = np.empty(0, dtype=np.intp)
    if n_train < n:
        if seg_p[trans] == p_train:
            lengths = np.insert(lengths, at_seg[trans], p_train)
            at_seg = np.searchsorted(lengths, seg_p)
            at_seg[trans + 1:] += seg_p[trans + 1:] == p_train
        job_seg = np.repeat(np.arange(n_seg), seg_hi - seg_lo)[n_train:]
        at_job = at_seg[job_seg]
        # The transition segment's evaluated jobs: quoted after training.
        at_job[: int(seg_hi[trans]) - n_train] = (
            np.searchsorted(lengths, p_train, side="right") - 1
        )
    at_last = int(np.searchsorted(lengths, p_refit, side="right")) - 1
    window = config.series_window
    in_window = (
        np.ones(n_seg, dtype=bool)
        if window is None
        else (window[0] <= seg_boundary) & (seg_boundary < window[1])
    )
    # Each drain's evaluated job (negative: a training job, never quoted).
    drain_jobs = drain_order - n_train
    # One order-statistic index over the drained waits serves every kernel.
    select = RangeSelect(drained)
    horizons: Optional[np.ndarray] = None
    procs = trace.procs if config.record_jobs else None
    w = waits[n_train:]
    for name, kernel in kernels.items():
        predictor = predictors[name]
        result = results[name]
        detector = predictor.detector
        threshold = None
        if detector is not None and p_train is not None:
            # Training jobs carry no quotes, so nothing fires before
            # ``finish_training``: the threshold it tunes scans every fire.
            tuned = predictor.tuned_threshold(drained[:p_train])
            if tuned is not None:
                detector.retune(tuned)
            threshold = detector.threshold
            if horizons is None:
                horizons = drained_by(t[n_train:], np.arange(n_train, n))
        walk = _kernel_walk(
            kernel, predictor, drained, select, drain_jobs, lengths, at_job,
            horizons, threshold, p_train or 0,
        )
        if config.record_series:
            series = walk.values[at_seg]
            keep = in_window & ~np.isnan(series)
            result.series_times.extend(seg_boundary[keep].tolist())
            result.series_values.extend(series[keep].tolist())
        if walk.fire + 1 > p_refit:
            last, last_p = walk.fire_value, walk.fire + 1
        else:
            last, last_p = float(walk.values[at_last]), p_refit
        predictor.preload_history(drained[walk.start:])
        predictor.restore_quote(None if math.isnan(last) else last, n_drained - last_p)
        predictor.settle_prefix_refits(walk.quoted, walk.carry)
        if p_train is not None:
            predictor.mark_trained()
        if detector is not None:
            detector.restore_run(walk.run)
            detector.count_change_points(walk.fires)
            result.change_points = detector.change_points_seen
            result.miss_threshold = detector.threshold
        if n_train == n:
            continue

        # Scoring: the reference engine's per-job outcomes (same floats,
        # same order) from the quotes the evaluated jobs got at submit.
        q = walk.job_quotes
        nan_mask = np.isnan(q)
        result.n_skipped = int(np.count_nonzero(nan_mask))
        ws = w[~nan_mask]
        qs = q[~nan_mask]
        if predictor.kind is BoundKind.UPPER:
            correct = ws <= qs
        else:
            correct = ws >= qs
        ratio = np.empty(ws.size, dtype=float)
        positive = qs > 0.0
        # A subnormal quote overflows to inf, as ``_score``'s division
        # does; that is the ratio, not an error.
        with np.errstate(over="ignore"):
            np.divide(ws, qs, out=ratio, where=positive)
        if not positive.all():
            zero = ~positive
            ratio[zero] = np.where(ws[zero] == 0.0, 1.0, np.inf)
        result.record_outcomes(ratio, correct)
        if config.record_jobs:
            scored = np.flatnonzero(~nan_mask) + n_train
            for k, i in enumerate(scored):
                result.jobs.append(
                    JobRecord(
                        submit_time=float(t[i]),
                        predicted=float(qs[k]),
                        actual=float(waits[i]),
                        correct=bool(correct[k]),
                        procs=int(procs[i]),
                    )
                )
    return results


#: Drain positions a trimming kernel scans in its first chunk after a
#: restart, at the least.  Chunks then double while no fire turns up, so
#: the lookahead a fire discards stays a bounded fraction of the work
#: (see ``_kernel_walk``).
_MIN_CHUNK = 64


@dataclass
class _KernelWalk:
    """One kernel-served predictor's replay, as ``_kernel_walk`` leaves it."""

    job_quotes: np.ndarray  # the quote each evaluated job got at submit
    values: np.ndarray  # the quote at each refit prefix of ``lengths``
    start: int  # first drain position of the retained window
    fire: int  # drain position of the latest fire (-1: none)
    fire_value: float  # the quote that fire refit to
    run: int  # the detector's miss run after the last drain
    fires: int
    quoted: int  # refits that quoted a bound
    carry: dict  # the retained window's kernel state after its last refit


def _kernel_walk(
    kernel: Callable[..., np.ndarray],
    predictor: QuantilePredictor,
    drained: np.ndarray,
    select: RangeSelect,
    drain_jobs: np.ndarray,
    lengths: np.ndarray,
    at_job: np.ndarray,
    horizons: Optional[np.ndarray],
    threshold: Optional[int],
    scan_from: int,
) -> _KernelWalk:
    """Quote one prefix-kernel predictor through its change points.

    ``drained`` holds the drained waits in drain order and ``drain_jobs``
    each drain's evaluated-job index (negative: a training job, never
    quoted); evaluated job ``i`` refits last at ``lengths[at_job[i]]``
    before its submit, and ``horizons[i]`` drains precede that submit.
    Without a detector threshold this is a single kernel call.  Otherwise
    it works chunk by chunk from the window start ``s``: quote the chunk's
    new refit prefixes with ``kernel(drained[s:], lengths - s, ...)``,
    score the chunk's drains in drain order against the quote each job got
    at submit, and find the first fire from the carried miss run.  A fire
    at drain position ``g`` trims the window to ``max(s, g + 1 - trim)``
    and refits at ``g + 1``; the jobs submitted after that drain whose
    segment refit came before it are requoted with that value, and the
    scan restarts at ``g + 1``.  A chunk starts at twice the last gap
    between fires and doubles while none fires.

    Each refit is quoted once per retained window: every kernel call over
    one window shares a ``carry`` in which the kernels whose running sums
    depend on how waits were grouped between refits leave their state for
    the next chunk.  A fire starts a fresh one that holds the old window's
    as ``"before"`` and the fire's position in that window as ``"at"``,
    for the state a trim keeps (weibull's warm-start shape); the refits
    at or before ``at`` are the ones the fire came after.  The first chunk after
    a fire also quotes the fire's own refit, unless a boundary refit lands
    on the same prefix (``lead``).  Each call is also told how many refits
    before its first one quoted a bound on the final path (its
    ``ordinal``).  A chunk's lookahead past the next fire may quote refits
    that path never makes; they are dropped and requoted after the fire.
    """
    n_jobs = at_job.size
    n_drained = drained.size
    values = np.full(lengths.size, np.nan)
    job_quotes = np.full(n_jobs, np.nan)
    job_lengths = lengths[at_job]
    upper = predictor.kind is BoundKind.UPPER
    run = predictor.detector.current_run if predictor.detector is not None else 0
    s = window = fires = ordinal = 0
    fire, fire_value, lead = -1, math.nan, False
    carry: dict = {}
    pos, i0, b0 = scan_from, 0, 0
    size = n_drained if threshold is None else max(_MIN_CHUNK, pos)
    while True:
        end = min(n_drained, pos + size)
        if end >= n_drained:
            i1, b1 = n_jobs, lengths.size
        else:
            i1 = int(np.searchsorted(horizons, end, side="right"))
            b1 = int(np.searchsorted(lengths, end, side="right"))
        refits = lengths[b0:b1]
        first = fire >= 0 and pos == fire + 1  # the first chunk after a fire
        if first and lead:
            refits = np.concatenate(([fire + 1], refits))
        if refits.size:
            got = kernel(
                drained[s:refits[-1]], refits - s, window, select.at(s),
                ordinal, carry,
            )
            if first:
                fire_value = float(got[0])
            values[b0:b1] = got[got.size - (b1 - b0):]
            ordinal += int(np.count_nonzero(~np.isnan(got)))
        quotes = values[at_job[i0:i1]]
        if fire >= 0:
            quotes[job_lengths[i0:i1] <= fire] = fire_value
        job_quotes[i0:i1] = quotes
        if threshold is None:
            break
        # Score the chunk's drains and look for the next fire.
        jobs = drain_jobs[pos:end]
        scored = np.flatnonzero(jobs >= 0)
        predicted = job_quotes[jobs[scored]]
        valid = ~np.isnan(predicted)
        scored = scored[valid]
        w = drained[pos:end][scored]
        miss = w > predicted[valid] if upper else w < predicted[valid]
        k = first_fire_index(miss, run, threshold)
        if k is None:
            run = trailing_run(miss, run)
            if end >= n_drained:
                break
            pos, i0, b0 = end, i1, b1
            size *= 2
            continue
        g = pos + int(scored[k])
        b_fire = int(np.searchsorted(lengths, g, side="right"))
        # The refits past the fire are dropped and requoted after it.
        ordinal -= int(np.count_nonzero(~np.isnan(values[b_fire:b1])))
        size = max(_MIN_CHUNK, 2 * (g - max(fire, scan_from)))
        fires += 1
        fire = g
        carry.pop("before", None)
        carry = {"before": carry, "at": g - s}
        s = max(s, g + 1 - predictor.trim_length)
        window = g + 1 - s
        run = 0
        pos = g + 1
        i0 = int(np.searchsorted(horizons, g, side="right"))
        b0 = b_fire
        lead = b0 == lengths.size or lengths[b0] > g + 1
    return _KernelWalk(
        job_quotes, values, s, fire, fire_value, run, fires, ordinal, carry
    )


def replay_single(
    trace: Trace,
    predictor: QuantilePredictor,
    config: Optional[ReplayConfig] = None,
    engine: Optional[str] = None,
) -> ReplayResult:
    """Replay a trace against one predictor (convenience wrapper)."""
    return replay(trace, {"only": predictor}, config, engine=engine)["only"]


def replay_by_queue(
    trace: Trace,
    factory: Callable[[], Dict[str, QuantilePredictor]],
    config: Optional[ReplayConfig] = None,
    min_jobs: int = 100,
    engine: Optional[str] = None,
) -> Dict[str, Dict[str, ReplayResult]]:
    """Replay each queue of a multi-queue trace independently.

    This is the paper's per-queue evaluation applied to a raw log (e.g. a
    loaded SWF file): the trace is split by queue name, queues with fewer
    than ``min_jobs`` jobs are skipped, and ``factory()`` supplies a fresh
    predictor bank per queue.  Returns ``{queue: {method: result}}``.
    """
    results: Dict[str, Dict[str, ReplayResult]] = {}
    for queue in trace.queues():
        sub = trace.by_queue(queue)
        if len(sub) < min_jobs:
            continue
        results[queue] = replay(sub, factory(), config, engine=engine)
    return results
