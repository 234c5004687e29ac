"""Percentile-bootstrap quantile bound — a modern nonparametric comparison.

The natural present-day alternative to the paper's binomial construction:
resample the history with replacement B times, compute the empirical
q-quantile of each resample, and quote the C-quantile of those B estimates
as the upper bound.  Asymptotically this targets the same object as BMBP's
order-statistic bound, at ~B times the cost and with no finite-sample
guarantee — which is exactly the comparison worth making in the ablations.

The refit never materializes the B resample quantiles.  It makes a
*two-order-statistic draw*: the empirical q-quantile of one resample of
the sorted window ``s`` is ``s[J]`` where ``J = ceil(n·G) - 1`` with
``G ~ Beta(rank, n - rank + 1)`` (the classic
order-statistic-of-uniforms identity), and the quoted bound is a fixed
pair of *order statistics* of the B estimates — and since ``s[J(G)]`` is
monotone in ``G``, the m-th smallest estimate is the transform of the
m-th smallest ``G``.  So the refit draws exactly those two:
``U_(m) ~ Beta(m, B - m + 1)`` (uniform order statistic), its successor
from the conditional ``U_(m+1) | U_(m)``, and maps both through the Beta
inverse CDF in one vectorized ``betaincinv`` call.  Two scalar draws per
refit stand in for B Beta draws and a sort of the estimates, with
exactly the bound distribution of the materialized bootstrap at any
``n_resamples``, though not its realizations; the tests hold the two to
the same distribution with a seeded comparison.

The draws do not depend on the data: every refit with at least 30 waits
takes one ``beta`` and, when the C-quantile interpolates, one ``random``,
in refit order.  So a replay's prefix kernel (``_prefix_bounds``) reads
them from a tape drawn ahead, in that order, from a copy of the
predictor's generator (``_DrawTape``), and indexes it by refit ordinal.
It maps every refit's pair through one vectorized ``betaincinv`` and
reads the order statistics from a range-select index over the drained
waits, so each quote equals the per-event refit's bit for bit.
"""

from __future__ import annotations

import copy
import math
from typing import List, Optional, Tuple

import numpy as np
from scipy.special import betaincinv

from repro.core.history import HistoryWindow
from repro.core.predictor import (
    BoundKind,
    QuantilePredictor,
    register_batch_aware_observe,
)
from repro.stats.order_stats import RangeSelect

__all__ = ["BootstrapQuantilePredictor"]

#: Fewest retained waits a refit resamples; below it the bound is ``None``
#: and the refit draws nothing.
_MIN_WAITS = 30


class BootstrapQuantilePredictor(QuantilePredictor):
    """Upper/lower bound on a quantile via the percentile bootstrap."""

    name = "bootstrap"

    def __init__(
        self,
        quantile: float = 0.95,
        confidence: float = 0.95,
        kind: BoundKind = BoundKind.UPPER,
        trim: bool = True,
        trim_length: Optional[int] = None,
        rare_event_table=None,
        n_resamples: int = 200,
        max_history: int = 4000,
        seed: int = 0,
    ):
        super().__init__(
            quantile=quantile,
            confidence=confidence,
            kind=kind,
            trim=trim,
            trim_length=trim_length,
            rare_event_table=rare_event_table,
        )
        if n_resamples < 10:
            raise ValueError(f"need at least 10 resamples, got {n_resamples}")
        if max_history < 30:
            raise ValueError(f"max_history too small: {max_history}")
        self.n_resamples = n_resamples
        self.max_history = max_history
        self._rng = np.random.default_rng(seed)
        # The bound is the C-quantile (np.quantile linear interpolation) of
        # the B resample estimates — a fixed mix of the (m) and (m+1)
        # order statistics of B, none of which depends on the window, so
        # the draw parameters are constants of the predictor.
        level = confidence if kind is BoundKind.UPPER else 1.0 - confidence
        position = (n_resamples - 1) * level
        self._m = int(position) + 1  # 1-indexed order statistic of the B
        self._frac = position - (self._m - 1)
        # Exponent of the conditional-successor inverse CDF (see
        # ``_compute_bound``), constant per predictor.
        self._succ_exp = 1.0 / (n_resamples - self._m) if self._m < n_resamples else 1.0
        # Sorted mirror of the last ``max_history`` observations: a bounded
        # HistoryWindow whose incrementally maintained sorted view replaces
        # the per-refit ``np.sort(values[-max_history:])`` — the window the
        # bootstrap resamples is identical (same multiset, same sorted
        # array), but keeping it costs O(new observations) per refit
        # instead of O(n log n).  A change-point trim rebuilds it from the
        # retained history.
        self._mirror = HistoryWindow(max_size=max_history)
        self._tape: Optional[_DrawTape] = None

    def observe(self, wait: float, predicted: Optional[float] = None) -> None:
        self._mirror.append(wait)
        super().observe(wait, predicted=predicted)

    def _absorb_batch(self, waits: np.ndarray) -> None:
        self._mirror.extend(waits)
        super()._absorb_batch(waits)

    def _on_history_trimmed(self) -> None:
        self._mirror.clear()
        self._mirror.extend(self.history.arrival_view())

    def _draw(self, rng: np.random.Generator) -> Tuple[float, float]:
        """One refit's draws: ``U_(m)`` and ``U_(m+1)`` (the latter only
        drawn when the C-quantile interpolates; else equal to ``U_(m)``)."""
        m = self._m
        u = rng.beta(m, self.n_resamples - m + 1)
        if self._frac == 0.0:
            return u, u
        # U_(m+1) | U_(m) = u is the minimum of the B - m uniforms above
        # u, i.e. u + (1 - u) * (1 - W ** (1 / (B - m))), W ~ U(0, 1).
        return u, u + (1.0 - u) * (1.0 - rng.random() ** self._succ_exp)

    def _compute_bound(self) -> Optional[float]:
        if len(self.history) < _MIN_WAITS:
            return None
        rank_of = math.ceil
        window = self._mirror.sorted_values()
        n = window.size
        rank = max(1, rank_of(n * self.quantile))
        frac = self._frac
        u, u2 = self._draw(self._rng)
        if frac == 0.0:
            g = betaincinv(rank, n - rank + 1, u)
            return window.item(min(rank_of(g * n) - 1, n - 1))
        g, g2 = betaincinv(rank, n - rank + 1, np.array((u, u2)))
        bound = window.item(min(rank_of(g * n) - 1, n - 1))
        upper = window.item(min(rank_of(g2 * n) - 1, n - 1))
        return bound * (1.0 - frac) + upper * frac

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """The quote at each refit (see ``prefix_kernel``), the first of
        which is the predictor's ``ordinal``-th quoting refit.

        Refit ``i`` resamples the last ``min(lengths[i], max_history)``
        waits, the mirror's contents, with the next draws of the tape;
        ``_compute_bound``'s rank arithmetic runs elementwise, and the
        order statistics come from ``select``.  A refit of fewer than 30
        waits quotes ``NaN`` and draws nothing.
        """
        out = np.full(lengths.size, np.nan)
        quoted = np.flatnonzero(lengths >= _MIN_WAITS)
        if quoted.size == 0:
            return out
        if self._tape is None:
            self._tape = _DrawTape(self)
        u, u2 = self._tape.take(ordinal, quoted.size)
        hi = lengths[quoted]
        n = np.minimum(hi, self.max_history)
        rank = np.maximum(1, np.ceil(n * self.quantile))
        b = n - rank + 1
        select = select or RangeSelect(waits)

        def order_stat(g: np.ndarray) -> np.ndarray:
            idx = np.minimum(np.ceil(g * n) - 1, n - 1).astype(np.intp)
            # ``window.item(-1)``: a zero draw reads the largest wait.
            return select(hi - n, hi, np.where(idx < 0, idx + n, idx))

        frac = self._frac
        if frac == 0.0:
            out[quoted] = order_stat(betaincinv(rank, b, u))
            return out
        g, g2 = betaincinv(rank, b, np.stack((u, u2)))
        out[quoted] = order_stat(g) * (1.0 - frac) + order_stat(g2) * frac
        return out

    def settle_prefix_refits(self, quoted: int, carry: dict) -> None:
        """Advance the generator past ``quoted`` refits' draws, as the
        per-event refits would have, and drop the tape."""
        if self._tape is not None:
            self._rng.bit_generator.state = self._tape.state_after(quoted)
            self._tape = None


class _DrawTape:
    """A bootstrap predictor's refit draws, indexed by refit ordinal.

    Drawn block by block, in refit order, from a copy of the predictor's
    generator, so the predictor's own stream is untouched until
    ``state_after`` reports where it should stand after the refits a
    replay actually made.  Lookahead may draw past that point, so the
    generator state at each block's start is kept and at most one block
    is redrawn to find it.
    """

    _BLOCK = 256

    def __init__(self, predictor: BootstrapQuantilePredictor):
        self._draw = predictor._draw
        self._rng = copy.deepcopy(predictor._rng)
        self._starts: List[dict] = []
        self._u = np.empty(0)
        self._u2 = np.empty(0)

    def _extend(self) -> None:
        self._starts.append(self._rng.bit_generator.state)
        block = [self._draw(self._rng) for _ in range(self._BLOCK)]
        u, u2 = np.array(block).T
        self._u = np.concatenate((self._u, u))
        self._u2 = np.concatenate((self._u2, u2))

    def take(self, first: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """Draws ``first, ..., first + count - 1`` as ``(u, u2)`` arrays."""
        while self._u.size < first + count:
            self._extend()
        return self._u[first:first + count], self._u2[first:first + count]

    def state_after(self, count: int) -> dict:
        """The generator state after the first ``count`` draws."""
        block, rest = divmod(count, self._BLOCK)
        while len(self._starts) < block + (rest > 0):
            self._extend()
        if block == len(self._starts):
            return self._rng.bit_generator.state
        rng = copy.deepcopy(self._rng)
        rng.bit_generator.state = self._starts[block]
        for _ in range(rest):
            self._draw(rng)
        return rng.bit_generator.state


register_batch_aware_observe(BootstrapQuantilePredictor.observe)
