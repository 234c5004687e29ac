"""Naive baseline predictors.

These exist to make the paper's Section 5 argument concrete: *correctness*
(fraction of bounds that hold) is meaningless without *accuracy* (how tight
the bounds are).  ``MaxObservedPredictor`` is essentially always correct and
essentially never useful; ``PointQuantilePredictor`` is tight but
under-covers (no confidence margin); ``MeanWaitPredictor`` is what a user
eyeballing the queue's average would do and is neither correct nor tight
for heavy-tailed waits.

``P2QuantilePredictor`` and ``TDigestQuantilePredictor`` (the
``p2-quantile``/``tdigest-quantile`` bank methods) quote a streaming
P²/t-digest estimate of the same empirical quantile as
``PointQuantilePredictor``, trading the exact order statistic for an
O(1)-memory, O(1)-refit approximation.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.predictor import (
    BoundKind,
    QuantilePredictor,
    register_batch_aware_observe,
)
from repro.core.sketch import P2Quantile, TDigest
from repro.stats.order_stats import RangeSelect

__all__ = [
    "MaxObservedPredictor",
    "MeanWaitPredictor",
    "P2QuantilePredictor",
    "PointQuantilePredictor",
    "TDigestQuantilePredictor",
]


class MaxObservedPredictor(QuantilePredictor):
    """Quotes the largest wait ever observed (the conservative strawman).

    For lower-bound duty it quotes the minimum.  Trimming is disabled by
    default: the whole point of the strawman is its refusal to forget.
    """

    name = "max-observed"

    def __init__(self, quantile: float = 0.95, confidence: float = 0.95,
                 kind: BoundKind = BoundKind.UPPER, trim: bool = False):
        super().__init__(quantile=quantile, confidence=confidence, kind=kind,
                         trim=trim)
        self._extreme: Optional[float] = None

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        if self._extreme is None:
            self._extreme = wait
        elif self.kind is BoundKind.UPPER:
            self._extreme = max(self._extreme, wait)
        else:
            self._extreme = min(self._extreme, wait)
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray) -> None:
        extreme = float(waits.max() if self.kind is BoundKind.UPPER else waits.min())
        if self._extreme is None:
            self._extreme = extreme
        elif self.kind is BoundKind.UPPER:
            self._extreme = max(self._extreme, extreme)
        else:
            self._extreme = min(self._extreme, extreme)
        super()._absorb_batch(waits)

    def _on_history_trimmed(self) -> None:
        values = self.history.arrival_view()
        if values.size == 0:
            self._extreme = None
        elif self.kind is BoundKind.UPPER:
            self._extreme = float(values.max())
        else:
            self._extreme = float(values.min())

    def _compute_bound(self) -> Optional[float]:
        return self._extreme

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """Running extreme at each prefix length (see ``prefix_kernel``)."""
        running = (
            np.maximum if self.kind is BoundKind.UPPER else np.minimum
        ).accumulate(waits)
        return _at_lengths(running, lengths)


class PointQuantilePredictor(QuantilePredictor):
    """Quotes the raw empirical q-quantile — no confidence margin.

    Converges to marginal coverage exactly q on stationary data, so any
    imperfection (nonstationarity, autocorrelation, estimation noise) drags
    it below the target: the ablation that shows why BMBP's binomial margin
    is not optional.

    A refit reads the window's maintained sorted view through a rank
    subscription: bit-identical to sorting, O(new observations) per refit.
    """

    name = "point-quantile"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._rank_key = self.history.subscribe_rank(
            "point-quantile", self._point_rank
        )

    def _point_rank(self, n: int) -> Optional[int]:
        # The point estimate of the q-quantile serves both bound kinds —
        # having no confidence margin is exactly this baseline's flaw.
        if n == 0:
            return None
        return max(1, math.ceil(n * self.quantile))

    def _compute_bound(self) -> Optional[float]:
        return self.history.rank_value(self._rank_key)

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """Exact prefix order statistics at ``_point_rank`` (see
        ``prefix_kernel``)."""
        out = np.full(lengths.size, np.nan)
        quoted = lengths > 0
        m = lengths[quoted]
        select = select or RangeSelect(waits)
        out[quoted] = select(np.zeros_like(m), m, self._point_ranks(m) - 1)
        return out

    def _point_ranks(self, n: np.ndarray) -> np.ndarray:
        """``_point_rank`` at each of ``n`` (positive sizes) at once; the
        product and ceiling round as ``math``'s do."""
        return np.maximum(1, np.ceil(n * self.quantile)).astype(np.intp)


class MeanWaitPredictor(QuantilePredictor):
    """Quotes the historical mean wait (the eyeball forecast).

    The mean is maintained as a running (count, sum) pair so a refit is
    O(1) regardless of history length; a trim rebuilds the pair from the
    retained window in one vectorized pass.  The running sum and a fresh
    ``mean()`` over the window agree to floating-point roundoff (~1e-15
    relative) — inside every bound tolerance in the repository.
    """

    name = "mean-wait"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._n = 0
        self._sum = 0.0

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        self._n += 1
        self._sum += wait
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray) -> None:
        self._n += int(waits.size)
        self._sum += float(waits.sum())
        super()._absorb_batch(waits)

    def _on_history_trimmed(self) -> None:
        values = self.history.arrival_view()
        self._n = int(values.size)
        self._sum = float(values.sum())

    def _compute_bound(self) -> Optional[float]:
        if self._n == 0:
            return None
        return self._sum / self._n

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """Running mean at each prefix length (see ``prefix_kernel``).

        ``np.cumsum`` adds left to right like the per-item ``_sum += wait``
        feed, starting from the pairwise ``sum`` that
        ``_on_history_trimmed`` rebuilds a trimmed window with (or from
        the ``(n, Σ)`` an earlier call left in ``carry``), so each quote
        equals the per-event one bit for bit.
        """
        out = np.full(lengths.size, np.nan)
        if lengths.size == 0:
            return out
        state = carry.get("sums") if carry is not None else None
        n0, total = state or (window, waits[:window].sum())
        last = int(lengths[-1])
        running = np.cumsum(np.concatenate(([total], waits[n0:last])))
        if carry is not None:
            carry["sums"] = (last, float(running[-1]))
        quoted = lengths > 0
        m = lengths[quoted]
        out[quoted] = running[m - n0] / m
        return out


class _SketchQuantilePredictor(QuantilePredictor):
    """The empirical q-quantile streamed through a sketch, no margin.

    The sketch sees every observed wait, in order, and a change-point trim
    rebuilds it from the retained window.  It does not slide with a
    ``max_history`` window.  Approximate by contract (see
    :mod:`repro.core.sketch`), so it has no prefix kernel: a replay feeds
    it event by event.  Subclasses build ``_sketch`` and read it in
    ``_compute_bound``.
    """

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        # Before the base feed: a fire there rebuilds the sketch from the
        # history, this wait included.
        self._sketch.update(wait)
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray) -> None:
        self._sketch.update_batch(waits)
        super()._absorb_batch(waits)

    def _on_history_trimmed(self) -> None:
        self._sketch.reset()
        self._sketch.update_batch(self.history.arrival_view())


class P2QuantilePredictor(_SketchQuantilePredictor):
    """The q-quantile tracked by P²'s five markers."""

    name = "p2-quantile"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sketch = P2Quantile(self.quantile)

    def _compute_bound(self) -> Optional[float]:
        return self._sketch.quantile()


class TDigestQuantilePredictor(_SketchQuantilePredictor):
    """The q-quantile read from a merging t-digest."""

    name = "tdigest-quantile"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sketch = TDigest()

    def _compute_bound(self) -> Optional[float]:
        return self._sketch.quantile(self.quantile)


def _at_lengths(running: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``running[m - 1]`` for each prefix length ``m``; ``NaN`` for ``m = 0``."""
    out = np.full(lengths.size, np.nan)
    quoted = lengths > 0
    out[quoted] = running[lengths[quoted] - 1]
    return out


register_batch_aware_observe(MaxObservedPredictor.observe)
register_batch_aware_observe(MeanWaitPredictor.observe)
register_batch_aware_observe(_SketchQuantilePredictor.observe)
