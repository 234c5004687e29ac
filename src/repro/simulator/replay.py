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

* ``"batched"`` (the default) — the epoch-batched kernel.  The quote is
  piecewise constant between refits, so the trace is cut into *epoch
  segments* and each segment is processed with a handful of vectorized
  operations instead of a per-job Python loop: newly started jobs are fed
  through :meth:`QuantilePredictor.observe_batch`, the segment's jobs all
  receive the same quote, and correctness/ratio scoring happens in one
  final numpy pass per predictor.  Change points are the one way a quote
  can move mid-segment; a hit/miss scan of the segment's drains finds the
  firing drain, feeds up to it and requotes the rest of the segment
  (:meth:`~QuantilePredictor.feed_scored`), so outcomes match the
  reference engine event for event.  Predictors whose quote depends on the retained
  window of drained waits alone skip the segment loop entirely: the loop
  records the prefix length each refit sees, and the predictor's prefix
  kernel (see :func:`~repro.core.predictor.prefix_kernel`) yields every
  quote — in one call without a change-point detector, and one window at
  a time, restarting at each fire, with one.
* ``"reference"`` — the original per-event loop, kept as the semantic
  oracle (``bmbp verify`` and the engine-identity property tests compare
  against it), as the implementation for ``epoch=0`` (per-event refits have
  no segments to batch), and as an escape hatch via the
  ``BMBP_REPLAY_ENGINE`` environment variable.

See ``docs/performance.md`` for the kernel design and measured speedups.
"""

from __future__ import annotations

import heapq
import math
import os
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
from repro.core.refit import EpochBatch
from repro.simulator.results import JobRecord, ReplayResult
from repro.stats.order_stats import RangeSelect
from repro.workloads.trace import Trace

__all__ = ["ENGINES", "ReplayConfig", "replay", "replay_by_queue", "replay_single"]

#: Recognized replay engines, in default-preference order.
ENGINES = ("batched", "reference")

#: Environment variable overriding the default engine (escape hatch).
ENGINE_ENV_VAR = "BMBP_REPLAY_ENGINE"

#: Drain batches at or below this size are fed with scalar Python instead
#: of the vectorized ``observe_batch`` path.  On sparse traces (a handful
#: of jobs per refit epoch) the fixed cost of setting up numpy operations
#: on 1–2 element arrays exceeds the per-item work it saves; both paths
#: are exact, so the crossover is purely a performance knob.
_SMALL_BATCH = 8


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


def _resolve_engine(engine: Optional[str]) -> str:
    engine = engine or os.environ.get(ENGINE_ENV_VAR) or ENGINES[0]
    if engine not in ENGINES:
        raise ValueError(f"replay engine must be one of {ENGINES}, got {engine!r}")
    return engine


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

    ``engine`` selects the implementation (``"batched"`` or
    ``"reference"``); when omitted, the ``BMBP_REPLAY_ENGINE`` environment
    variable decides, defaulting to ``"batched"``.  Both engines produce
    results that agree to floating-point roundoff (identical counts and
    change points; bounds within 1e-9 relative).

    Returns a dict keyed like ``predictors`` with one
    :class:`ReplayResult` each.
    """
    config = config or ReplayConfig()
    engine = _resolve_engine(engine)
    if engine == "batched" and config.epoch > 0.0 and len(trace) > 0:
        return _replay_batched(trace, predictors, config)
    return _replay_reference(trace, predictors, config)


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
# Batched engine: the epoch-segment kernel.
# --------------------------------------------------------------------------
#
# Between refit boundaries a predictor's quote is a single scalar, so the
# per-job loop collapses into per-*segment* work:
#
#   1. boundary drain — jobs that started at or before the epoch boundary
#      are fed in one ``observe_batch`` call per predictor (the batch scan
#      locates change points at the identical observation a sequential feed
#      would);
#   2. refit + series record, exactly once per boundary;
#   3. quote assignment — every job in the segment receives the (constant)
#      refit quote, recorded into a per-predictor quote array;
#   4. intra-segment drain — jobs starting inside the segment are fed as a
#      second batch, scanned for change points first; if one fires
#      mid-segment (which moves the quote), that predictor's batch is split
#      at the fire and the rest of the segment requoted.
#
# Predictors with a prefix kernel take no part in steps 1–4: the loop only
# records ``seg_p``, the drained prefix at each boundary refit, and the
# kernels quote from it after the loop, scanning their own change points
# (``_serve_prefix_kernels``).
#
# Scoring is deferred entirely: one vectorized comparison + ratio pass per
# predictor at the end, reading the quote arrays.  This is legal because
# ``predict()`` is a pure read — interleaving scoring with drains (as the
# reference engine does) can only matter when the quote changes mid-segment,
# which is exactly the fallback case.
#
# Drain order equivalence: the reference engine's pending heap pops jobs in
# (start_time, index) order, i.e. a stable argsort of start times.  Every
# drain consumes a *prefix* of the not-yet-started jobs in that order, except
# for jobs not yet submitted (index at or past the draining job's): on a
# submit-ordered trace those must satisfy start == submit == drain horizon
# (zero-wait ties), which places them in a contiguous suffix of the
# candidate range — so each drain is the candidate range minus a counted
# suffix, and the global drain sequence is a contiguous walk of the argsort.


def _replay_batched(
    trace: Trace,
    predictors: Dict[str, QuantilePredictor],
    config: ReplayConfig,
) -> Dict[str, ReplayResult]:
    all_names = list(predictors)
    results = _make_results(trace, predictors)
    # Predictors whose quote is a pure function of the retained window of
    # drained waits are served by their prefix kernels after the loop;
    # only the rest are driven through it.
    kernels = {}
    for name in all_names:
        kernel = prefix_kernel(predictors[name])
        if kernel is not None:
            kernels[name] = kernel
    names = [name for name in all_names if name not in kernels]
    n = len(trace)
    n_train = config.resolve_training(n)
    epoch = config.epoch
    window = config.series_window
    record_series = config.record_series

    t = trace.submit_times
    waits = trace.waits
    t0 = float(t[0])
    start = t + waits
    order = np.argsort(start, kind="stable")
    start_sorted = start[order]

    # Epoch segments: a new segment starts whenever a job's epoch boundary
    # exceeds the running maximum (mirroring the reference engine's
    # ``boundary > last_boundary`` trigger exactly, including its handling
    # of duplicate-timestamp runs).
    boundaries = t0 + epoch * np.floor((t - t0) / epoch)
    is_new = np.empty(n, dtype=bool)
    is_new[0] = True
    if n > 1:
        is_new[1:] = boundaries[1:] > np.maximum.accumulate(boundaries)[:-1]
    seg_lo = np.flatnonzero(is_new)
    seg_hi = np.append(seg_lo[1:], n)
    seg_boundary = boundaries[seg_lo]
    n_seg = int(seg_lo.size)
    # Drain horizons, as positions in the start-sorted order: jobs starting
    # at or before the segment's boundary / last submit time.
    horizon_bound = np.searchsorted(start_sorted, seg_boundary, side="right")
    horizon_last = np.searchsorted(start_sorted, t[seg_hi - 1], side="right")

    # Per-predictor quote arrays: quotes[name][i] is the bound job i was
    # quoted at submit (NaN = none — training jobs and unready predictors).
    quotes = {name: np.full(n, np.nan) for name in all_names}

    # Hot-loop state, hoisted out of the per-segment path: bound methods,
    # per-predictor flags, and Python-scalar copies of the arrays the
    # scalar paths index one element at a time (a list item is a float;
    # an ndarray item is a fresh np.float64 box, several times dearer).
    n_names = len(names)
    preds = [predictors[name] for name in names]
    qarrs = [quotes[name] for name in names]
    observes = [pr.observe for pr in preds]
    is_upper = [pr.kind is BoundKind.UPPER for pr in preds]
    has_trim = [pr.trim and pr.detector is not None for pr in preds]
    aware = [observe_is_batch_aware(pr) for pr in preds]
    waits_l = waits.tolist()
    order_l = order.tolist()
    start_sorted_l = start_sorted.tolist()
    seg_lo_l = seg_lo.tolist()
    seg_hi_l = seg_hi.tolist()
    seg_boundary_l = seg_boundary.tolist()
    horizon_bound_l = horizon_bound.tolist()
    horizon_last_l = horizon_last.tolist()
    t_last_l = t[seg_hi - 1].tolist()

    def record_point(name: str, at: float, value: Optional[float]) -> None:
        if value is not None and (window is None or window[0] <= at < window[1]):
            results[name].series_times.append(at)
            results[name].series_values.append(value)

    # The refit schedule, recorded for the prefix kernels: the drained
    # prefix length each segment's boundary refit saw, and the one
    # ``finish_training`` saw in the transition segment.
    seg_p = [0] * n_seg
    p_train: Optional[int] = None
    p_refit = -1  # drained prefix at the latest refit
    p = 0  # drained prefix length of ``order``
    seg = 0
    while seg < n_seg:
        lo = seg_lo_l[seg]
        hi = seg_hi_l[seg]
        boundary = seg_boundary_l[seg]

        # Inert fast path: no job starts inside this segment's horizon and
        # nothing was drained since the last refit, so no quote can move —
        # stamp the loop's quotes over a whole run of such segments without
        # touching the predictors.
        if lo > n_train and horizon_last_l[seg] <= p == p_refit:
            run_end = max(int(np.searchsorted(horizon_last, p, side="right")), seg + 1)
            run_hi = seg_hi_l[run_end - 1]
            seg_p[seg:run_end] = [p] * (run_end - seg)
            for k in range(n_names):
                value = preds[k].predict()
                if value is None:
                    continue
                qarrs[k][lo:run_hi] = value
                if record_series:
                    for s in range(seg, run_end):
                        record_point(names[k], seg_boundary_l[s], value)
            seg = run_end
            continue

        # 1. Boundary drain: jobs started at or before the boundary.  A
        # candidate submitted at this very segment (index >= lo) can only be
        # a zero-wait tie starting exactly at the boundary (see the drain
        # note above), so unless the horizon's last start *is* the boundary
        # the suffix count is provably zero and skipped.
        a_end = horizon_bound_l[seg]
        if a_end > p and start_sorted_l[a_end - 1] == boundary:
            a_end -= int(np.count_nonzero(order[p:a_end] >= lo))
        if a_end > p:
            if a_end - p <= _SMALL_BATCH:
                # Scalar feed: exact for every predictor (it *is* the
                # reference semantics), change points included.
                for j in order_l[p:a_end]:
                    w = waits_l[j]
                    for k in range(n_names):
                        # ``.item`` hands the predictors a python float —
                        # the NaN check here and every comparison downstream
                        # skips numpy-scalar dispatch.
                        q = qarrs[k].item(j)
                        observes[k](w, None if q != q else q)
            else:
                batch = order[p:a_end]
                w = waits[batch]
                # One shared sorted/log/summary view of the epoch's drain
                # batch feeds the whole bank (see repro.core.refit).
                shared = EpochBatch(w)
                for k in range(n_names):
                    preds[k].observe_batch(w, qarrs[k][batch], shared=shared)
            p = a_end

        # 2. Refit + series record, once per boundary.
        seg_p[seg] = p_refit = p
        for k in range(n_names):
            pr = preds[k]
            pr.refit_if_stale()
            if record_series:
                record_point(names[k], boundary, pr.predict())

        if hi <= n_train:
            # Training segment: no quotes, no scoring, and intra-segment
            # starts carry no bounds — defer their (pure-absorb) feed to the
            # next boundary drain, where the identical batch arrives before
            # the next refit.  Zero per-job work.
            seg += 1
            continue

        if lo <= n_train:
            # The training→evaluation transition happens mid-segment:
            # ``finish_training`` refits (moving the quote) at an arbitrary
            # job index, so replay this one segment exactly, per event.
            p, p_train = _replay_transition_segment(
                predictors, names, quotes, t, waits, order, start_sorted,
                p, lo, hi, n_train,
            )
            p_refit = p_train
            seg += 1
            continue

        # 3. Quote assignment: the refit quote holds for the whole segment
        # (optimistically — a mid-segment change point is handled below).
        for k in range(n_names):
            value = preds[k].predict()
            if value is not None:
                if hi - lo == 1:
                    qarrs[k][lo] = value
                else:
                    qarrs[k][lo:hi] = value

        # 4. Intra-segment drain: jobs starting at or before the segment's
        # last submit.  The suffix rule leaves (at most) a zero-wait final
        # job for the next segment's boundary drain.
        d_end = horizon_last_l[seg]
        if d_end > p and start_sorted_l[d_end - 1] == t_last_l[seg]:
            d_end -= int(np.count_nonzero(order[p:d_end] >= hi - 1))
        if d_end <= p:
            seg += 1
            continue
        drained: Optional[np.ndarray] = None
        if d_end - p <= _SMALL_BATCH:
            d_list = order_l[p:d_end]
            sequential: List[str] = []
            for k in range(n_names):
                qa = qarrs[k]
                if has_trim[k]:
                    if not aware[k]:
                        # An unregistered ``observe`` override may interact
                        # with the detector in ways the precheck cannot
                        # model; stay exact when any drain is scored.
                        if any(qa[j] == qa[j] for j in d_list):
                            sequential.append(names[k])
                            continue
                    else:
                        # Scalar change-point precheck: simulate the
                        # detector's run over the batch without mutating it.
                        det = preds[k].detector
                        run = det.current_run
                        threshold = det.threshold
                        upper = is_upper[k]
                        fire = False
                        for j in d_list:
                            q = qa.item(j)
                            if q != q:
                                continue
                            if (waits_l[j] > q) if upper else (waits_l[j] < q):
                                run += 1
                                if run >= threshold:
                                    fire = True
                                    break
                            else:
                                run = 0
                        if fire:
                            if drained is None:
                                drained = order[p:d_end]
                                w = waits[drained]
                            _feed_scored_with_fires(
                                preds[k], qa, drained, w, p, t, start,
                                start_sorted, lo, hi,
                            )
                            continue
                obs = observes[k]
                for j in d_list:
                    q = qa.item(j)
                    obs(waits_l[j], None if q != q else q)
            if sequential:
                _replay_segment_sequential(
                    predictors, sequential, quotes, t, waits, order,
                    start_sorted, p, lo, hi,
                )
        else:
            drained = order[p:d_end]
            w = waits[drained]
            shared = EpochBatch(w)
            sequential = []
            for k in range(n_names):
                predictor = preds[k]
                if has_trim[k] and aware[k]:
                    # Single-scan exact feed: splits at change-point fires
                    # and requotes the rest of the segment; no-fire batches
                    # (the common case) cost exactly one hit/miss scan.
                    _feed_scored_with_fires(
                        predictor, qarrs[k], drained, w, p, t, start,
                        start_sorted, lo, hi, shared=shared,
                    )
                    continue
                predicted = qarrs[k][drained]
                if has_trim[k] and not np.all(np.isnan(predicted)):
                    sequential.append(names[k])
                    continue
                predictor.observe_batch(w, predicted, shared=shared)
            if sequential:
                _replay_segment_sequential(
                    predictors, sequential, quotes, t, waits, order,
                    start_sorted, p, lo, hi,
                )
        p = d_end
        seg += 1

    if kernels:
        _serve_prefix_kernels(
            predictors, kernels, quotes, results, order[:p], waits, t, start,
            start_sorted, np.asarray(seg_p), seg_lo, seg_hi, seg_boundary,
            p_train, p_refit, n_train, config,
        )

    # Deferred scoring: one vectorized pass per predictor over the
    # evaluation suffix, reproducing the reference engine's per-job
    # outcomes (same floats, same order) from the quote arrays.
    procs = trace.procs if config.record_jobs else None
    for name in all_names:
        result = results[name]
        predictor = predictors[name]
        if n_train < n:
            q = quotes[name][n_train:]
            w = waits[n_train:]
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
                            predicted=float(quotes[name][i]),
                            actual=float(waits[i]),
                            correct=bool(correct[k]),
                            procs=int(procs[i]),
                        )
                    )
        if predictor.detector is not None:
            result.change_points = predictor.detector.change_points_seen
            result.miss_threshold = predictor.detector.threshold
    return results


#: Drain positions a trimming kernel scans in its first chunk after a
#: restart, at the least.  Chunks then double while no fire turns up, so
#: the lookahead a fire discards stays a bounded fraction of the work
#: (see ``_kernel_walk``).
_MIN_CHUNK = 64


def _serve_prefix_kernels(
    predictors: Dict[str, QuantilePredictor],
    kernels: Dict[str, Callable[..., np.ndarray]],
    quotes: Dict[str, np.ndarray],
    results: Dict[str, ReplayResult],
    drain_order: np.ndarray,
    waits: np.ndarray,
    t: np.ndarray,
    start: np.ndarray,
    start_sorted: np.ndarray,
    seg_p: np.ndarray,
    seg_lo: np.ndarray,
    seg_hi: np.ndarray,
    seg_boundary: np.ndarray,
    p_train: Optional[int],
    p_refit: int,
    n_train: int,
    config: ReplayConfig,
) -> None:
    """Quote, score, record and settle the predictors in ``kernels``.

    Such a predictor refits at segment boundaries, at ``finish_training``
    and at its own change points, and each refit's quote is its kernel's
    value for the window retained by then.  Without fires, segment ``s``
    is quoted (and its series point recorded) at ``seg_p[s]``, except the
    transition segment's evaluated jobs, which get the ``finish_training``
    quote at ``p_train``.  A fire at drain position ``g`` trims the window
    to start at ``max(s, g + 1 - trim_length)`` and refits at ``g + 1``;
    the jobs submitted after that drain and before their segment's next
    refit get that quote instead (``_kernel_walk``).  Each predictor then
    ends in the state the loop would have left: the retained waits as
    history, the last refit's quote, the count drained since that refit,
    the trained flag and the detector's threshold, run and fire count.
    """
    n_seg = seg_p.size
    n = int(seg_hi[-1])
    drained = waits[drain_order]
    # Every refit prefix in refit order, ``p_refit`` (the latest) included.
    # ``finish_training`` refits even when the transition segment's
    # boundary refit saw the same prefix; that prefix then appears twice,
    # and the segments up to the transition read the first refit.
    lengths = np.unique(seg_p if p_train is None else np.append(seg_p, p_train))
    at_seg = np.searchsorted(lengths, seg_p)
    at_job = np.empty(0, dtype=np.intp)
    if n_train < n:
        trans = int(np.searchsorted(seg_hi, n_train, side="right"))
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
    for name, kernel in kernels.items():
        predictor = predictors[name]
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
                horizons = _submit_horizons(t, start, start_sorted, n_train, n)
        walk = _kernel_walk(
            kernel, predictor, drained, select, drain_jobs, lengths, at_job,
            horizons, threshold, p_train or 0,
        )
        if n_train < n:
            quotes[name][n_train:] = walk.job_quotes
        if config.record_series:
            series = walk.values[at_seg]
            keep = in_window & ~np.isnan(series)
            results[name].series_times.extend(seg_boundary[keep].tolist())
            results[name].series_values.extend(series[keep].tolist())
        if walk.fire + 1 > p_refit:
            last, last_p = walk.fire_value, walk.fire + 1
        else:
            last, last_p = float(walk.values[at_last]), p_refit
        predictor.preload_history(drained[walk.start:])
        predictor.restore_quote(
            None if math.isnan(last) else last, drained.size - last_p
        )
        predictor.settle_prefix_refits(walk.quoted)
        if p_train is not None:
            predictor.mark_trained()
        if detector is not None:
            detector.restore_run(walk.run)
            detector.count_change_points(walk.fires)


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
    the next chunk, and a fire starts a fresh one.  The first chunk after
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
        s = max(s, g + 1 - predictor.trim_length)
        window = g + 1 - s
        run = 0
        carry = {}
        pos = g + 1
        i0 = int(np.searchsorted(horizons, g, side="right"))
        b0 = b_fire
        lead = b0 == lengths.size or lengths[b0] > g + 1
    return _KernelWalk(
        job_quotes, values, s, fire, fire_value, run, fires, ordinal
    )


def _submit_horizons(
    t: np.ndarray,
    start: np.ndarray,
    start_sorted: np.ndarray,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Drained count when each job in ``[lo, hi)`` is submitted.

    Jobs start (and drain) in start-sorted order up to the submit instant,
    except the zero-wait ties the module drain-order note describes: jobs
    submitted at that same instant at or after the submitting one, which
    start right then and drain after its quote.  Non-decreasing, so the
    first job quoted after drain position ``g`` is
    ``lo + searchsorted(horizons, g, side="right")``.
    """
    t_jobs = t[lo:hi]
    horizons = np.searchsorted(start_sorted, t_jobs, side="right")
    tie_end = np.searchsorted(t, t_jobs, side="right")
    top = int(tie_end[-1])
    ties = np.concatenate(([0], np.cumsum(start[lo:top] == t[lo:top])))
    return horizons - (ties[tie_end - lo] - ties[: hi - lo])


def _feed_scored_with_fires(
    predictor: QuantilePredictor,
    qarr: np.ndarray,
    drains: np.ndarray,
    w: np.ndarray,
    p0: int,
    t: np.ndarray,
    start: np.ndarray,
    start_sorted: np.ndarray,
    lo: int,
    hi: int,
    shared: Optional[EpochBatch] = None,
) -> None:
    """Feed one predictor's segment drains exactly, splitting at fires.

    The optimistic segment-constant quote is valid up to the first drain at
    which the change-point detector fires — everything before it behaves
    exactly as the vectorized path assumed.  So instead of replaying the
    whole segment per event, this feeds the batch up to and including the
    firing drain (:meth:`~QuantilePredictor.feed_scored` trims and refits
    at the identical observation), finds the first segment job whose quote
    was *not* yet final when that drain was fed (``i*``: the first job
    whose drain horizon lies past the fire, see ``_submit_horizons``),
    restamps ``[i*, hi)`` with the post-fire quote, and rescans the
    remaining drains against the updated quote array.  Each loop iteration
    consumes one fire; the batch hit/miss sequence is scanned exactly once
    per iteration.  The segment's horizons are computed at the first fire.
    """
    upper = predictor.kind is BoundKind.UPPER
    n_d = int(drains.size)
    horizons: Optional[np.ndarray] = None
    pos = 0
    while pos < n_d:
        tail = drains[pos:]
        predicted = qarr[tail]
        w_tail = w[pos:]
        scored = np.flatnonzero(~np.isnan(predicted))
        if upper:
            miss = w_tail[scored] > predicted[scored]
        else:
            miss = w_tail[scored] < predicted[scored]
        g = predictor.feed_scored(
            w_tail, scored, miss, shared=shared if pos == 0 else None
        )
        if g is None:
            return
        fire_at = p0 + pos + g  # absolute position of the firing drain
        if horizons is None:
            horizons = _submit_horizons(t, start, start_sorted, lo, hi)
        i_star = lo + int(np.searchsorted(horizons, fire_at, side="right"))
        if i_star < hi:
            value = predictor.predict()
            qarr[i_star:hi] = np.nan if value is None else value
        pos += g + 1


def _drain_chunk(
    order: np.ndarray,
    start_sorted: np.ndarray,
    p: int,
    until: float,
    i_limit: int,
) -> Tuple[Optional[np.ndarray], int]:
    """One reference-equivalent drain step: jobs with start <= ``until``.

    Candidates not yet submitted (index >= ``i_limit``) occupy a suffix of
    the candidate range (zero-wait ties; see the module-level drain-order
    note) and are excluded by count.  Returns (chunk, new position).
    """
    h = int(np.searchsorted(start_sorted, until, side="right"))
    if h > p and start_sorted[h - 1] == until:
        h -= int(np.count_nonzero(order[p:h] >= i_limit))
    if h <= p:
        return None, p
    return order[p:h], h


def _feed_one(
    predictor: QuantilePredictor, quote_arr: np.ndarray, wait: float, j: int
) -> None:
    value = quote_arr[j]
    predictor.observe(wait, predicted=None if np.isnan(value) else float(value))


def _replay_transition_segment(
    predictors: Dict[str, QuantilePredictor],
    names: List[str],
    quotes: Dict[str, np.ndarray],
    t: np.ndarray,
    waits: np.ndarray,
    order: np.ndarray,
    start_sorted: np.ndarray,
    p: int,
    lo: int,
    hi: int,
    n_train: int,
) -> Tuple[int, int]:
    """Exact per-event replay of the segment containing the training cutoff.

    Returns the drained prefix lengths at the segment's end and at the
    ``finish_training`` call.
    """
    for i in range(lo, hi):
        chunk, p = _drain_chunk(order, start_sorted, p, float(t[i]), i)
        if chunk is not None:
            for j in chunk:
                wait = float(waits[j])
                for name in names:
                    _feed_one(predictors[name], quotes[name], wait, j)
        if i == n_train:
            p_train = p
            for name in names:
                predictors[name].finish_training()
        if i >= n_train:
            for name in names:
                value = predictors[name].predict()
                if value is not None:
                    quotes[name][i] = value
    return p, p_train


def _replay_segment_sequential(
    predictors: Dict[str, QuantilePredictor],
    names: List[str],
    quotes: Dict[str, np.ndarray],
    t: np.ndarray,
    waits: np.ndarray,
    order: np.ndarray,
    start_sorted: np.ndarray,
    p: int,
    lo: int,
    hi: int,
) -> None:
    """Exact per-event replay of one post-training segment.

    Used for the predictors whose change-point detector fires mid-segment
    (the quote moves, so the segment-constant assignment is invalid): their
    optimistic quotes are overwritten job by job.  The caller's drain
    pointer is left untouched — the drain chunks recomputed here cover the
    same contiguous slice the batched feed would have.
    """
    preds = [predictors[name] for name in names]
    observes = [pr.observe for pr in preds]
    qarrs = [quotes[name] for name in names]
    n_names = len(preds)
    # All drain horizons for the segment in one vectorized search; the
    # zero-wait-tie suffix count is applied per chunk below, only when the
    # horizon's last start actually equals the draining submit time.
    h_arr = np.searchsorted(start_sorted, t[lo:hi], side="right").tolist()
    t_l = t[lo:hi].tolist()
    for m in range(hi - lo):
        i = lo + m
        h = h_arr[m]
        if h > p and start_sorted[h - 1] == t_l[m]:
            h -= int(np.count_nonzero(order[p:h] >= i))
        if h > p:
            for j in order[p:h].tolist():
                w = waits[j]
                for k in range(n_names):
                    q = qarrs[k][j]
                    observes[k](w, None if q != q else q)
            p = h
        for k in range(n_names):
            value = preds[k].predict()
            qarrs[k][i] = np.nan if value is None else value


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
