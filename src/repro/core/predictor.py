"""The predictor API shared by BMBP, the log-normal methods, and baselines.

A :class:`QuantilePredictor` follows the deployment protocol of Section 5.1:

* ``observe(wait, predicted=...)`` — a job has *started*; its wait time
  becomes visible history.  If a bound was predicted for it at submit time,
  the hit/miss outcome feeds the change-point detector.
* ``refit()`` — recompute the current bound from history (the simulator
  calls this once per epoch, modelling the periodic state dump a live
  deployment would receive).
* ``predict()`` — the bound that would be quoted to a user right now (the
  value cached by the last refit).
* ``finish_training()`` — called once when the training prefix of a trace
  has been absorbed; estimates the lag-1 autocorrelation of the history and
  retunes the rare-event threshold accordingly.

Subclasses implement a single method, ``_compute_bound``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from repro.core import binomial
from repro.core.changepoint import (
    ConsecutiveMissDetector,
    first_fire_index,
    trailing_run,
)
from repro.core.history import HistoryWindow
from repro.core.rare_event import RareEventTable, default_rare_event_table
from repro.core.refit import EpochBatch
from repro.core.sketch import make_sketch
from repro.stats.autocorrelation import first_autocorrelation

__all__ = [
    "BoundKind",
    "Prediction",
    "QuantilePredictor",
    "REFIT_MODES",
    "SKETCH_REFIT_MODES",
    "observe_is_batch_aware",
    "prefix_kernel",
    "register_batch_aware_observe",
]

#: Exact refit strategies every predictor supports: ``"incremental"`` (the
#: default — maintained windows, running sums, memoized log caches) and
#: ``"recompute"`` (the legacy full-recompute paths, kept as the A/B
#: control the ``bmbp bench-core`` sparse-regime assertion measures
#: against).  Both produce the same bounds — incremental order statistics
#: bit-identically, running sums to floating-point roundoff.
REFIT_MODES = ("incremental", "recompute")

#: Approximate refit strategies backed by :mod:`repro.core.sketch`; only
#: predictors whose bound is a plain order statistic opt in (class
#: attribute ``_SKETCH_CAPABLE``).  Sketch-backed bounds are O(1) per
#: refit but approximate by contract — see ``docs/verification.md``.
SKETCH_REFIT_MODES = ("p2", "tdigest")

#: Smallest drain batch worth handing a shared pre-sorted copy to the
#: window (below this the window folds the batch with scalar inserts and
#: would ignore the hint).
_PRESORT_MIN_BATCH = 9

#: ``observe`` implementations whose per-observation side effects are fully
#: replicated by the owning class's ``_absorb_batch``.  ``observe_batch``
#: takes its vectorized fast path only for predictors whose (possibly
#: overridden) ``observe`` is registered here; any other override — e.g. a
#: test double logging its inputs — transparently falls back to per-item
#: ``observe`` calls, so batching is an optimization, never a semantic
#: change.
_BATCH_AWARE_OBSERVE: set = set()


def register_batch_aware_observe(observe: Callable) -> None:
    """Declare an ``observe`` implementation safe for vectorized feeding.

    Call this (at class-definition time) for any :class:`QuantilePredictor`
    subclass that overrides ``observe`` *and* mirrors the override's extra
    state updates in ``_absorb_batch``.
    """
    _BATCH_AWARE_OBSERVE.add(observe)


def observe_is_batch_aware(predictor: "QuantilePredictor") -> bool:
    """Whether this predictor's ``observe`` is registered as batch-aware.

    The batched replay engine treats an unregistered override
    conservatively: its per-observation behaviour (and thus its change-point
    interaction) cannot be modelled by a vectorized hit/miss scan, so
    scored drains are replayed per event instead.
    """
    return type(predictor).observe in _BATCH_AWARE_OBSERVE


def prefix_kernel(
    predictor: "QuantilePredictor",
) -> Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """The predictor's prefix kernel, if its quotes depend on the window only.

    Without a sliding window or a sketch, an exact-refit predictor's quote
    after absorbing the first ``n`` drained waits depends on those waits
    alone, so a replay can compute every quote it will ever quote in one
    call.  A change-point trim only moves where the window starts: between
    two fires each quote is a function of the retained waits
    ``waits[s:n]``, so the same call serves a trimming predictor one fire
    at a time.  A class offers that call as ``_prefix_bounds(waits,
    lengths, window=0, select=None, ordinal=0, carry=None)``: ``waits`` is
    the drained sequence in drain order, ``lengths`` the non-decreasing
    prefix lengths at which it refits, and the result holds the bound
    ``_compute_bound`` returns at each of those refits when fed ``waits``
    one ``observe`` at a time (``NaN`` where it returns ``None``).  A repeated length is a
    second refit at the same prefix (``finish_training`` right after a
    boundary refit).  With ``window = w > 0`` the first ``w`` waits are
    instead the window a trim left behind, rebuilt by
    ``_on_history_trimmed`` (every length is then at least ``w``); kernels
    whose running sums depend on how the window was assembled reproduce
    that rebuild, the others ignore it.  ``select``, when given, is a
    :class:`~repro.stats.order_stats.RangeSelect` over ``waits`` that the
    order-statistic kernels read instead of building their own.
    ``ordinal`` counts the predictor's earlier refits that quoted a bound:
    a kernel whose refits draw from a random stream indexes its draws by
    it, and :meth:`QuantilePredictor.settle_prefix_refits` then leaves the
    stream where the replay's refits would.  ``carry``, when given, is a
    dict shared by successive calls over one retained window, each of
    which quotes the refits after the previous call's last: a kernel
    whose running sums depend on how waits were grouped between refits
    (log-normal, mean-wait) leaves them there, and the next call adds on
    from them rather than from ``window``, performing the additions one
    call over all the lengths would.  The other kernels ignore it.

    Returns the bound kernel, or ``None`` when the predictor must be
    replayed event by event: it has a window or a non-incremental refit
    mode; it already holds history or a quote; its ``observe`` is an
    unregistered override; or the class that owns its ``_compute_bound``
    does not also own ``_prefix_bounds`` (a subclass that redefines the
    bound inherits no kernel for it).
    """
    if (
        predictor.refit_mode != "incremental"
        or predictor.history.max_size is not None
        or len(predictor.history)
        or predictor.predict() is not None
        or not observe_is_batch_aware(predictor)
    ):
        return None
    owner = next(
        cls for cls in type(predictor).__mro__ if "_compute_bound" in vars(cls)
    )
    if "_prefix_bounds" not in vars(owner):
        return None
    return predictor._prefix_bounds


#: Threshold used before any training data is available: the i.i.d. value
#: from the paper's narrative ("three measurements in a row ... almost
#: certain" to indicate nonstationarity).
IID_MISS_THRESHOLD = 3


class BoundKind(str, Enum):
    """Which side of the quantile the prediction bounds."""

    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class Prediction:
    """A quoted bound, with provenance, as returned by ``describe()``."""

    value: float
    quantile: float
    confidence: float
    kind: BoundKind
    n_history: int
    method: str


class QuantilePredictor(ABC):
    """Base class for bound predictors with optional change-point trimming."""

    #: Human-readable method name, overridden by subclasses.
    name = "base"

    #: Whether this predictor's bound can be served by a streaming sketch
    #: (``refit_mode="p2"``/``"tdigest"``).  Only order-statistic bounds
    #: qualify; subclasses opt in explicitly.
    _SKETCH_CAPABLE = False

    def __init__(
        self,
        quantile: float = 0.95,
        confidence: float = 0.95,
        kind: BoundKind = BoundKind.UPPER,
        trim: bool = True,
        trim_length: Optional[int] = None,
        rare_event_table: Optional[RareEventTable] = None,
        max_history: Optional[int] = None,
        refit_mode: str = "incremental",
    ):
        if not 0.0 < quantile < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {quantile}")
        if not 0.0 < confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {confidence}")
        if refit_mode in SKETCH_REFIT_MODES:
            if not type(self)._SKETCH_CAPABLE:
                raise ValueError(
                    f"{type(self).__name__} does not support sketch refit "
                    f"mode {refit_mode!r} (not an order-statistic bound)"
                )
        elif refit_mode not in REFIT_MODES:
            raise ValueError(
                f"refit_mode must be one of {REFIT_MODES + SKETCH_REFIT_MODES}, "
                f"got {refit_mode!r}"
            )
        self.refit_mode = refit_mode
        self._sketch = (
            make_sketch(refit_mode, quantile)
            if refit_mode in SKETCH_REFIT_MODES
            else None
        )
        self.quantile = quantile
        self.confidence = confidence
        self.kind = BoundKind(kind)
        self.trim = trim
        if trim_length is None:
            # "Trim the history as much as we are able to while still
            # producing meaningful confidence bounds": the binomial minimum
            # sample size for this quantile/confidence pair (59 for .95/.95).
            if self.kind is BoundKind.UPPER:
                trim_length = binomial.minimum_sample_size(quantile, confidence)
            else:
                trim_length = binomial.minimum_sample_size_lower(quantile, confidence)
        self.trim_length = trim_length
        self._table = rare_event_table
        # max_history turns the predictor into a sliding-window variant:
        # the simplest alternative to change-point trimming, kept for
        # ablations (fixed windows forget good history and remember bad).
        self.history = HistoryWindow(max_size=max_history)
        self.detector = ConsecutiveMissDetector(IID_MISS_THRESHOLD) if trim else None
        self._current: Optional[float] = None
        self._observations_since_refit = 0
        self._trained = False

    # ------------------------------------------------------------------ API

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        """Absorb a completed wait; optionally score it against its bound."""
        if wait < 0.0:
            raise ValueError(f"wait times are non-negative, got {wait}")
        self.history.append(wait)
        if self._sketch is not None:
            self._sketch.update(wait)
        self._observations_since_refit += 1
        if self.trim and predicted is not None:
            miss = self._is_miss(wait, predicted)
            if self.detector.record(miss):
                self._on_change_point()

    def observe_batch(
        self,
        waits: np.ndarray,
        predicted: Optional[np.ndarray] = None,
        shared: Optional[EpochBatch] = None,
    ) -> None:
        """Absorb many completed waits in one pass; score those with bounds.

        Exactly equivalent to calling :meth:`observe` once per element, in
        order, with ``predicted[i]`` (``NaN`` meaning "no bound was quoted"
        — the batch spelling of ``predicted=None``), but vectorized: the
        history grows by one buffer copy, subclass aggregates update in one
        pass, and the change-point detector scans the whole batch's
        hit/miss sequence at once.  When a miss run reaches the detector
        threshold mid-batch, the feed splits at the *identical observation
        index* a sequential feed would have trimmed at, applies the trim,
        and continues — so quoted-bound provenance, trim indices, and refit
        staleness are bit-identical to the per-item path.

        Predictors that override ``observe`` without registering it via
        :func:`register_batch_aware_observe` are fed item by item.

        ``shared``, when given, must be an :class:`EpochBatch` wrapping
        exactly ``waits``: the replay engine builds one per drain batch so
        the whole method bank shares a single sorted/log/summary view of
        the epoch's new observations (see :mod:`repro.core.refit`).
        """
        waits = np.asarray(waits, dtype=float)
        n = waits.size
        if n == 0:
            return
        if np.any(waits < 0.0):
            raise ValueError("wait times are non-negative")
        if predicted is not None:
            predicted = np.asarray(predicted, dtype=float)
        if type(self).observe not in _BATCH_AWARE_OBSERVE:
            for i in range(n):
                value = None
                if predicted is not None and not np.isnan(predicted[i]):
                    value = float(predicted[i])
                self.observe(float(waits[i]), predicted=value)
            return
        detector = self.detector
        if not self.trim or detector is None or predicted is None:
            self._absorb_batch(waits, shared)
            self._observations_since_refit += n
            return
        scored = np.flatnonzero(~np.isnan(predicted))
        if scored.size == 0:
            self._absorb_batch(waits, shared)
            self._observations_since_refit += n
            return
        if self.kind is BoundKind.UPPER:
            miss = waits[scored] > predicted[scored]
        else:
            miss = waits[scored] < predicted[scored]
        pos = 0  # next unfed batch index
        k = 0  # next unscanned index within the scored subsequence
        carry = detector.current_run
        while True:
            fire_k = first_fire_index(miss[k:], carry, detector.threshold)
            if fire_k is None:
                if pos < n:
                    # The shared views describe the *whole* batch; a feed
                    # split by an earlier fire absorbs slices, which the
                    # views no longer match.
                    self._absorb_batch(waits[pos:], shared if pos == 0 else None)
                    self._observations_since_refit += n - pos
                detector.restore_run(trailing_run(miss[k:], carry))
                return
            fire_at = int(scored[k + fire_k])
            self._absorb_batch(waits[pos:fire_at + 1])
            self._observations_since_refit += fire_at + 1 - pos
            detector.mark_change_point()
            self._on_change_point()
            pos = fire_at + 1
            k += fire_k + 1
            carry = 0

    def feed_scored(
        self,
        waits: np.ndarray,
        scored: np.ndarray,
        miss: np.ndarray,
        shared: Optional[EpochBatch] = None,
    ) -> Optional[int]:
        """Feed a scored batch up to (and including) the first fire.

        The replay engine's single-scan primitive: ``scored`` holds the
        indices of ``waits`` that were quoted a bound and ``miss`` their
        hit/miss outcomes, both already computed by the caller.  If the
        change-point detector would fire at scored position ``k``, this
        absorbs ``waits[:scored[k] + 1]`` (firing, trimming, and refitting
        at that identical observation, exactly as a sequential feed would),
        and returns ``scored[k]`` so the caller can requote the remainder
        and feed it against the post-trim bound.  Otherwise the whole batch
        is absorbed and ``None`` is returned.  Only valid on batch-aware,
        trimming predictors (see :meth:`observe_batch`).
        """
        detector = self.detector
        carry = detector.current_run
        fire_k = first_fire_index(miss, carry, detector.threshold)
        if fire_k is None:
            self._absorb_batch(waits, shared)
            self._observations_since_refit += waits.size
            detector.restore_run(trailing_run(miss, carry))
            return None
        g = int(scored[fire_k])
        self._absorb_batch(waits[:g + 1])
        self._observations_since_refit += g + 1
        detector.mark_change_point()
        self._on_change_point()
        return g

    def preload_history(self, waits) -> None:
        """Bulk-load completed waits without scoring them.

        The restore path for persisted state: equivalent to ``observe`` per
        value with no ``predicted`` bound (so the change-point detector is
        untouched), but vectorized through :meth:`HistoryWindow.extend` so a
        daemon restart with months of history costs one buffer copy rather
        than one Python call per observation.  Call ``refit`` (or
        ``finish_training``) afterwards to recompute the quoted bound.
        """
        count = len(waits)
        if count == 0:
            return
        self.history.extend(waits)
        self._observations_since_refit += count
        # Subclasses keeping running aggregates (the log-normal sums)
        # rebuild them from the window in one vectorized pass.
        self._on_history_trimmed()

    def refit(self) -> None:
        """Recompute the quoted bound from the current history."""
        self._current = self._compute_bound()
        self._observations_since_refit = 0

    def refit_if_stale(self) -> None:
        """Refit only when new observations arrived since the last refit.

        Inlines :meth:`refit` rather than delegating: this runs once per
        method per epoch boundary, where a sparse replay's epochs hold a
        single job — the extra call frame is measurable across the bank.
        """
        if self._observations_since_refit > 0 or self._current is None:
            self._current = self._compute_bound()
            self._observations_since_refit = 0

    def predict(self) -> Optional[float]:
        """The bound quoted to a user right now (None if not computable)."""
        return self._current

    def describe(self) -> Optional[Prediction]:
        """The current bound with full provenance, or None."""
        if self._current is None:
            return None
        return Prediction(
            value=self._current,
            quantile=self.quantile,
            confidence=self.confidence,
            kind=self.kind,
            n_history=len(self.history),
            method=self.name,
        )

    def finish_training(self) -> None:
        """Estimate autocorrelation from history; retune the detector; refit.

        Called once, when a trace's training prefix has been absorbed.  Safe
        to call for the NoTrim variants (it just refits).
        """
        # Zero-copy view: the training history can be hundreds of
        # thousands of waits, and this must not list-ify it.
        threshold = self.tuned_threshold(self.history.arrival_view())
        if threshold is not None:
            self.detector.retune(threshold)
        self._trained = True
        self.refit()

    def tuned_threshold(self, training: np.ndarray) -> Optional[int]:
        """The miss threshold ``finish_training`` tunes from ``training``.

        The rare-event table's run length for the training waits' lag-1
        autocorrelation (in log space); ``None`` — keep the current
        threshold — for the NoTrim variants and for fewer than three waits.
        """
        if not self.trim or len(training) < 3:
            return None
        rho = first_autocorrelation(training, log_space=True)
        table = self._table or default_rare_event_table(self.quantile)
        return table.threshold_for(rho)

    @property
    def trained(self) -> bool:
        return self._trained

    # ------------------------------------------------------- state restore

    def mark_trained(self) -> None:
        """Flip to trained *without* the training-time retune/refit.

        The restore path for persisted state: ``finish_training`` estimates
        autocorrelation and refits, but a snapshot already recorded the
        tuned threshold and the quoted bound, so recomputing both would be
        wasted work (and, for the bound, would clobber the exact quote the
        process was serving when it stopped).
        """
        self._trained = True

    def restore_quote(self, current: Optional[float], since_refit: int) -> None:
        """Restore the cached quote and refit-staleness counter verbatim.

        Together with the history and the detector run this makes a
        restored predictor indistinguishable from the one that was saved:
        it quotes the same bound and refits at the same future moment.
        """
        self._current = current
        self._observations_since_refit = max(0, int(since_refit))

    def settle_prefix_refits(self, quoted: int) -> None:
        """Leave per-refit state where ``quoted`` quoting refits leave it.

        A replay that served this predictor from its prefix kernel calls
        this once, with the number of refits on its path that quoted a
        bound.  Only a predictor whose refits consume state beyond the
        history (the bootstrap's random stream) has anything to settle.
        """

    @property
    def observations_since_refit(self) -> int:
        """Observations absorbed since the last refit (snapshot state)."""
        return self._observations_since_refit

    @property
    def miss_threshold(self) -> Optional[int]:
        """Current consecutive-miss threshold (None for NoTrim variants)."""
        return self.detector.threshold if self.detector is not None else None

    # ------------------------------------------------------------- internals

    def _is_miss(self, wait: float, predicted: float) -> bool:
        if self.kind is BoundKind.UPPER:
            return wait > predicted
        return wait < predicted

    def _on_change_point(self) -> None:
        """Paper's response to a rare event: trim history, restart predictions."""
        self.history.trim_to_recent(self.trim_length)
        self._on_history_trimmed()
        self.refit()

    def _absorb_batch(
        self, waits: np.ndarray, shared: Optional[EpochBatch] = None
    ) -> None:
        """Fold a batch of completed waits into history (no scoring).

        Subclasses that keep running aggregates (the log-normal sums, the
        max-observed extreme) override this to update them in the same
        vectorized pass; the override must leave the predictor in exactly
        the state a per-item ``observe`` loop would, and should forward
        ``shared`` (the epoch's memoized batch views) to ``super()``.
        """
        if shared is not None and waits.size >= _PRESORT_MIN_BATCH:
            self.history.extend(waits, presorted=shared.sorted_waits())
        else:
            self.history.extend(waits)
        if self._sketch is not None:
            self._sketch.update_batch(waits)

    def _on_history_trimmed(self) -> None:
        """Hook for subclasses that keep running aggregates over history.

        The base implementation rebuilds the sketch (when a sketch refit
        mode is active) from the retained window; sketch-capable
        subclasses overriding this hook must call ``super()``.
        """
        if self._sketch is not None:
            self._sketch.reset()
            self._sketch.update_batch(self.history.arrival_view())

    @abstractmethod
    def _compute_bound(self) -> Optional[float]:
        """Compute the bound from ``self.history``; None if not computable."""


register_batch_aware_observe(QuantilePredictor.observe)
