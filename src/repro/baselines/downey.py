"""Downey's log-uniform wait-time model as a baseline predictor.

Downey (1997) modelled the delay experienced by the job at the head of a
FCFS queue with a *log-uniform* distribution.  As a baseline we fit a
log-uniform to the observed wait history by maximum likelihood (the support
is the sample's log-range) and quote its q-quantile as the bound.  Unlike
BMBP and the tolerance-bound log-normal, this quotes a plain quantile
*estimate* — there is no confidence machinery in the model — so it
illustrates what "prediction without quantified confidence" looks like.
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
from repro.stats.distributions import DEFAULT_LOG_SHIFT, LogUniformDistribution
from repro.stats.order_stats import RangeSelect

__all__ = ["DowneyLogUniformPredictor"]


class DowneyLogUniformPredictor(QuantilePredictor):
    """Log-uniform MLE fit; quotes the model's q-quantile as the bound."""

    name = "downey-loguniform"

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
        # running-extremes refit predates the mode split and is identical
        # (and O(1)) either way.
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
        # The MLE support is the sample's raw range — maintained as running
        # extremes so a refit is O(1) instead of an O(history) scan.  The
        # log transform is monotone, so log(min + shift) is min(log(x +
        # shift)) exactly, matching ``fit_loguniform`` on the full window.
        self._lo: Optional[float] = None
        self._hi: Optional[float] = None

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        if self._lo is None:
            self._lo = self._hi = wait
        else:
            if wait < self._lo:
                self._lo = wait
            if wait > self._hi:
                self._hi = wait
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray, shared=None) -> None:
        # The running extremes ARE the memoized sufficient statistics of
        # the log-uniform MLE (its support is the sample's range), so both
        # the scalar and the batch feed keep refits O(1).
        lo = float(waits.min())
        hi = float(waits.max())
        if self._lo is None:
            self._lo, self._hi = lo, hi
        else:
            self._lo = min(self._lo, lo)
            self._hi = max(self._hi, hi)
        super()._absorb_batch(waits, shared)

    def _on_history_trimmed(self) -> None:
        values = self.history.arrival_view()
        if values.size == 0:
            self._lo = self._hi = None
        else:
            self._lo = float(values.min())
            self._hi = float(values.max())

    def _compute_bound(self) -> Optional[float]:
        if len(self.history) < 2:
            return None
        return self._bound(self._lo, self._hi)

    def _bound(self, lo: float, hi: float) -> float:
        """The quote for a sample whose range is ``[lo, hi]``."""
        if lo + self.shift <= 0.0:
            raise ValueError("all values must exceed -shift for a log-uniform fit")
        fitted = LogUniformDistribution(
            log_lo=math.log(lo + self.shift),
            log_hi=math.log(hi + self.shift),
            shift=self.shift,
        )
        # A point estimate of the q-quantile serves as both the "upper" and
        # "lower" quote — the model carries no confidence margin to shift it.
        return max(0.0, fitted.quantile(self.quantile))

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """The quote at each prefix length (see ``prefix_kernel``).

        The running extremes change only at record-setting waits, so
        ``_bound`` — the very function ``_compute_bound`` calls — runs
        once per distinct ``(lo, hi)`` pair and the quotes equal the
        per-event ones bit for bit.
        """
        out = np.full(lengths.size, np.nan)
        fitted = np.flatnonzero(lengths >= 2)
        if fitted.size:
            last = lengths[fitted] - 1
            lo = np.minimum.accumulate(waits)[last]
            hi = np.maximum.accumulate(waits)[last]
            new = np.ones(fitted.size, dtype=bool)
            new[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
            starts = np.flatnonzero(new)
            values = [
                self._bound(a, b)
                for a, b in zip(lo[starts].tolist(), hi[starts].tolist())
            ]
            out[fitted] = np.repeat(values, np.diff(np.append(starts, fitted.size)))
        return out


register_batch_aware_observe(DowneyLogUniformPredictor.observe)
