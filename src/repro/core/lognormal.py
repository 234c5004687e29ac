"""The log-normal comparison predictor (Section 4.2 of the paper).

Fits a normal distribution to the logarithms of the observed waits by
maximum likelihood and quotes a one-sided confidence bound on the requested
quantile using the K' tolerance factor (Guttman 1970, computed exactly from
the noncentral-t distribution in :mod:`repro.stats.tolerance`).

Two variants, matching the paper's evaluation columns:

* ``trim=False`` — "logn NoTrim": the classic model fit over the full
  history.
* ``trim=True`` — "logn Trim": the same fit, but with BMBP's change-point
  detection and history trimming grafted on, separating the effect of the
  binomial approach from the effect of automatic change-point detection.

The fit maintains running sums of ``log(wait + shift)`` so that a NoTrim
refit is O(1) regardless of history length; a trim event rebuilds the sums
from the retained suffix.  Per-item observations defer their ``log`` to
the next refit, where the pending values are folded in one vectorized pass
(scalar ``math.log`` when only one or two are pending, preserving the
historical accumulation exactly in the common sparse-replay case); batch
absorption reads the epoch's shared log moments when the replay engine
provides them, so the Trim and NoTrim variants (and the Weibull log cache,
at the same shift) split a single ``np.log`` pass.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.predictor import (
    BoundKind,
    QuantilePredictor,
    register_batch_aware_observe,
)
from repro.stats.distributions import DEFAULT_LOG_SHIFT
from repro.stats.order_stats import RangeSelect
from repro.stats.tolerance import (
    normal_quantile_lower_factor,
    normal_quantile_upper_factor,
)

__all__ = ["LogNormalPredictor"]

#: exp() overflows float64 just above 709; cap the exponent so absurd fits
#: quote a huge-but-finite bound instead of raising.
_MAX_EXPONENT = 700.0


def _factor_bucket(n: int) -> int:
    """Bucket sample sizes so tolerance factors can be cached.

    K'(n) changes by well under 0.1% per unit n once n is in the thousands;
    rounding n to ~1% granularity above 1000 makes the noncentral-t quantile
    evaluation cacheable without measurably moving the bound.  Together
    with the ``lru_cache`` on ``_upper_factor``/``_lower_factor`` below
    this makes the K′ lookup an O(1) dictionary hit in steady state — the
    noncentral-t ppf is only ever evaluated once per (bucket, level).
    """
    if n <= 1000:
        return n
    magnitude = 10 ** (len(str(n)) - 3)
    return (n // magnitude) * magnitude


#: ``10 ** k`` for every digit count an int64 sample size can have.
_POWERS_OF_TEN = 10 ** np.arange(19, dtype=np.int64)


def _factor_buckets(n: np.ndarray) -> np.ndarray:
    """``_factor_bucket`` at each of ``n`` (positive sample sizes)."""
    n = np.asarray(n, dtype=np.int64)
    digits = np.searchsorted(_POWERS_OF_TEN, n, side="right")
    magnitude = _POWERS_OF_TEN[np.maximum(digits - 3, 0)]
    return np.where(n <= 1000, n, (n // magnitude) * magnitude)


@lru_cache(maxsize=65536)
def _upper_factor(n_bucket: int, quantile: float, confidence: float) -> float:
    return normal_quantile_upper_factor(n_bucket, quantile, confidence)


@lru_cache(maxsize=65536)
def _lower_factor(n_bucket: int, quantile: float, confidence: float) -> float:
    return normal_quantile_lower_factor(n_bucket, quantile, confidence)


def _fold_logs(
    n: int, total: float, sumsq: float, waits: List[float], shift: float
) -> Tuple[int, float, float]:
    """Running ``(n, Σ, Σ²)`` of shifted logs with ``waits`` folded in.

    One or two values — the epoch cadence of a sparse replay — are folded
    with scalar ``math.log``, reproducing the historical per-observation
    accumulation exactly; longer runs use one vectorized ``np.log`` pass
    (agreeing to ~1e-15 relative, far inside the repository-wide 1e-9
    bound tolerance).
    """
    if len(waits) <= 2:
        for wait in waits:
            log_wait = math.log(wait + shift)
            total += log_wait
            sumsq += log_wait * log_wait
    else:
        logs = np.log(np.asarray(waits, dtype=float) + shift)
        total += float(logs.sum())
        sumsq += float(np.dot(logs, logs))
    return n + len(waits), total, sumsq


def _window_moments(values: np.ndarray, shift: float) -> Tuple[int, float, float]:
    """``(n, Σ, Σ²)`` of a whole window's shifted logs in one vectorized
    pass: how a trim (or a bulk preload) rebuilds the running sums."""
    logs = np.log(values + shift)
    return int(logs.size), float(logs.sum()), float(np.dot(logs, logs))


def _tolerance_bound(
    n: int, total: float, sumsq: float, factor: float, shift: float
) -> float:
    """The quoted bound ``exp(mean + K′·s) - shift`` from ``n`` shifted-log
    waits' sum and sum of squares (``s``: the ddof=1 sample deviation)."""
    mean = total / n
    # Sample variance with ddof=1, as the tolerance derivation assumes;
    # clamp tiny negatives from floating-point cancellation.
    var = max(0.0, (sumsq - n * mean * mean) / (n - 1))
    exponent = min(mean + factor * math.sqrt(var), _MAX_EXPONENT)
    return max(0.0, math.exp(exponent) - shift)


class LogNormalPredictor(QuantilePredictor):
    """MLE log-normal fit with noncentral-t quantile confidence bounds."""

    def __init__(
        self,
        quantile: float = 0.95,
        confidence: float = 0.95,
        kind: BoundKind = BoundKind.UPPER,
        trim: bool = False,
        trim_length: Optional[int] = None,
        rare_event_table=None,
        shift: float = DEFAULT_LOG_SHIFT,
        refit_mode: str = "incremental",
    ):
        # ``refit_mode`` is accepted for bank-builder uniformity; the
        # running log-sums predate the mode split and keep both exact
        # modes O(1) per refit, identically.
        super().__init__(
            quantile=quantile,
            confidence=confidence,
            kind=kind,
            trim=trim,
            trim_length=trim_length,
            rare_event_table=rare_event_table,
            refit_mode=refit_mode,
        )
        if shift <= 0.0:
            raise ValueError(f"log shift must be positive, got {shift}")
        self.shift = shift
        self._n = 0
        self._sum = 0.0
        self._sumsq = 0.0
        # Raw waits observed per item since the last refit, their logs not
        # yet taken: the log is deferred to refit time so a burst of
        # scalar observations pays one vectorized pass, not a ``math.log``
        # per call.
        self._pending: List[float] = []

    @property
    def name(self) -> str:  # type: ignore[override]
        return "logn-trim" if self.trim else "logn-notrim"

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        self._pending.append(wait)
        super().observe(wait, predicted=predicted)

    def _fold_pending(self) -> None:
        """Fold deferred per-item observations into the running log-sums."""
        if self._pending:
            self._n, self._sum, self._sumsq = _fold_logs(
                self._n, self._sum, self._sumsq, self._pending, self.shift
            )
            self._pending.clear()

    def _absorb_batch(self, waits: np.ndarray, shared=None) -> None:
        """Batch update of the running log-sums (one vectorized pass).

        The per-item path accumulates ``math.log`` terms left to right;
        this accumulates ``np.log`` over the batch with a pairwise
        reduction.  The two agree to floating-point roundoff (~1e-15
        relative), far inside the 1e-9 tolerance every bound comparison in
        the repository uses.  When the replay engine supplies the epoch's
        shared views, the log moments come from its per-shift memo — the
        identical reductions, computed once for every consumer at this
        shift.
        """
        self._fold_pending()
        if shared is not None:
            count, total, sumsq = shared.log_moments(self.shift)
        else:
            logs = np.log(waits + self.shift)
            count = int(logs.size)
            total = float(logs.sum())
            sumsq = float(np.dot(logs, logs))
        self._n += count
        self._sum += total
        self._sumsq += sumsq
        super()._absorb_batch(waits, shared)

    def _on_history_trimmed(self) -> None:
        """Rebuild the running log-sums from the retained history suffix.

        One vectorized pass over the window's zero-copy arrival view — a
        trim retains ``trim_length`` observations, but this also runs on
        every change point, so it must not copy the history into a Python
        list first.  Deferred per-item observations are dropped unfolded:
        the retained window already contains them.
        """
        self._pending.clear()
        self._n, self._sum, self._sumsq = _window_moments(
            self.history.arrival_view(), self.shift
        )

    def _compute_bound(self) -> Optional[float]:
        self._fold_pending()
        n = self._n
        if n < 2:
            return None
        return _tolerance_bound(
            n, self._sum, self._sumsq, self._factor(n), self.shift
        )

    def _factor(self, n: int) -> float:
        """The cached K′ tolerance factor for an ``n``-wait fit."""
        if self.kind is BoundKind.UPPER:
            return _upper_factor(_factor_bucket(n), self.quantile, self.confidence)
        return _lower_factor(_factor_bucket(n), self.quantile, self.confidence)

    def _factors(self, n: np.ndarray) -> np.ndarray:
        """``_factor`` at each of ``n``: one cached lookup per bucket."""
        factor = _upper_factor if self.kind is BoundKind.UPPER else _lower_factor
        buckets, at = np.unique(_factor_buckets(n), return_inverse=True)
        return np.array(
            [factor(b, self.quantile, self.confidence) for b in buckets.tolist()]
        )[at]

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """The quote at each prefix length (see ``prefix_kernel``).

        A trimmed window's sums are rebuilt as ``_on_history_trimmed``
        rebuilds them (or continue from ``carry``), and the waits between
        consecutive lengths are folded exactly as the per-item feed folds
        what arrived between two refits (``_fold_logs``): a gap of one or
        two waits as ``math.log`` terms, one slot per wait, a longer gap
        as one vectorized sum in its last slot and zeros in the others.
        ``np.cumsum`` over those slots performs the feed's additions in
        the feed's order (adding ``0.0`` leaves a sum unchanged), and
        ``_tolerance_bound``'s arithmetic is elementwise, so the quotes
        match the per-item feed bit for bit.  The scalar logs and the
        final ``exp`` stay ``math``'s, as in the feed: numpy's vectorized
        ``log`` and ``exp`` differ from them in the last bit on some
        inputs.
        """
        out = np.full(lengths.size, np.nan)
        if lengths.size == 0:
            return out
        shift = self.shift
        state = carry.get("sums") if carry is not None else None
        n0, total, sumsq = state or _window_moments(waits[:window], shift)
        last = int(lengths[-1])
        gaps = np.diff(lengths, prepend=n0)
        big = gaps > 2
        terms = np.zeros(last - n0 + 1)
        terms_sq = np.zeros(last - n0 + 1)
        terms[0], terms_sq[0] = total, sumsq
        small = np.flatnonzero(~np.repeat(big, gaps)) + n0
        logs = np.fromiter(
            map(math.log, (waits[small] + shift).tolist()), float, small.size
        )
        terms[small - n0 + 1] = logs
        terms_sq[small - n0 + 1] = logs * logs
        for lo, hi in zip((lengths - gaps)[big].tolist(), lengths[big].tolist()):
            gap_logs = np.log(waits[lo:hi] + shift)
            terms[hi - n0] = gap_logs.sum()
            terms_sq[hi - n0] = np.dot(gap_logs, gap_logs)
        sums, sums_sq = np.cumsum(terms), np.cumsum(terms_sq)
        if carry is not None:
            carry["sums"] = (last, float(sums[-1]), float(sums_sq[-1]))
        fitted = np.flatnonzero(lengths >= 2)
        if fitted.size:
            m = lengths[fitted]
            count = m.astype(float)
            mean = sums[m - n0] / count
            var = np.maximum(
                0.0, (sums_sq[m - n0] - count * mean * mean) / (count - 1)
            )
            exponent = np.minimum(
                mean + self._factors(m) * np.sqrt(var), _MAX_EXPONENT
            )
            exp = np.fromiter(map(math.exp, exponent.tolist()), float, m.size)
            out[fitted] = np.maximum(0.0, exp - shift)
        return out


register_batch_aware_observe(LogNormalPredictor.observe)
