"""The Brevik Method Batch Predictor (BMBP).

Nonparametric quantile-bound prediction from observed wait-time history:
order-statistic bounds from the binomial construction (exact for small
histories, the paper's conservative normal approximation for large ones),
combined with consecutive-miss change-point detection and history trimming.
This is the paper's primary contribution.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core import binomial
from repro.core.predictor import (
    SKETCH_REFIT_MODES,
    BoundKind,
    QuantilePredictor,
)
from repro.core.quantile import bound_rank
from repro.stats.order_stats import RangeSelect

__all__ = ["BMBPPredictor"]


class BMBPPredictor(QuantilePredictor):
    """BMBP: binomial order-statistic bounds with adaptive history trimming.

    Parameters
    ----------
    quantile, confidence:
        The quantile being bounded and the confidence level of the bound
        (both 0.95 throughout the paper's evaluation).
    kind:
        ``BoundKind.UPPER`` for upper bounds (the headline use case) or
        ``BoundKind.LOWER`` (used e.g. for the 0.25-quantile row of the
        paper's Table 8).
    method:
        ``"auto"`` (paper behaviour: exact binomial for small samples,
        normal approximation once expected successes and failures both reach
        10), ``"exact"``, or ``"normal"``.
    trim:
        Enable change-point history trimming (the paper's BMBP always does;
        disabling it gives the degraded long-history variant mentioned in
        Section 4.1).
    max_history:
        Optional fixed sliding window: keep only the most recent N
        observations.  An ablation alternative to change-point trimming —
        see the ablations experiment.
    refit_mode:
        ``"incremental"`` (default) serves the bound from the history
        window's incrementally maintained sorted view via a rank
        subscription — bit-identical to a full re-select, O(new
        observations) per refit.  ``"recompute"`` re-sorts the window every
        refit (the legacy path, kept as the benchmarked A/B control).
        ``"p2"``/``"tdigest"`` serve the bound rank's probability from a
        streaming sketch — O(1) per refit, approximate by contract.
    """

    name = "bmbp"
    _SKETCH_CAPABLE = True

    def __init__(
        self,
        quantile: float = 0.95,
        confidence: float = 0.95,
        kind: BoundKind = BoundKind.UPPER,
        method: str = "auto",
        trim: bool = True,
        trim_length: Optional[int] = None,
        rare_event_table=None,
        max_history: Optional[int] = None,
        refit_mode: str = "incremental",
    ):
        super().__init__(
            quantile=quantile,
            confidence=confidence,
            kind=kind,
            trim=trim,
            trim_length=trim_length,
            rare_event_table=rare_event_table,
            max_history=max_history,
            refit_mode=refit_mode,
        )
        if method not in ("auto", "exact", "normal"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        # Declare the bound rank to the shared maintained sorted view; the
        # resolver is memoized per window size and the binomial searches
        # behind ``bound_rank`` are lru-cached, so steady-state resolution
        # is a dictionary hit.
        self._rank_key = self.history.subscribe_rank("bmbp-bound", self._bound_rank)
        # Closed-form fast path for the normal-approximation rank: a
        # growing window resolves its rank at every refit (the per-size
        # memo never hits), and the shared ``bound_rank`` dispatch costs
        # several call layers each time.  Once n clears the paper's
        # switch-over rule the resolution is a two-line formula, so inline
        # it; below the threshold (or with ``method="exact"``) fall back
        # to the shared resolver.
        self._z = binomial._z_value(confidence)
        if method == "exact":
            self._normal_n_min: Optional[int] = None
        elif method == "normal":
            self._normal_n_min = 1
        else:
            e = binomial.NORMAL_APPROX_MIN_EXPECTED
            n_min = max(1, int(max(e / quantile, e / (1.0 - quantile))) - 2)
            while not binomial.use_normal_approximation(n_min, quantile):
                n_min += 1
            self._normal_n_min = n_min

    def _bound_rank(self, n: int) -> Optional[int]:
        """The binomial bound rank for a window of ``n`` observations."""
        n_min = self._normal_n_min
        if n_min is not None and n >= n_min:
            # Same expressions as binomial.normal_approx_upper_rank /
            # normal_approx_lower_rank, term for term, so the resolved
            # rank is bit-identical to the shared resolver's.
            q = self.quantile
            z = self._z
            if self.kind is BoundKind.UPPER:
                rank = math.ceil(n * q + z * math.sqrt(n * q * (1.0 - q)))
                if rank < 1:
                    rank = 1
                return rank if rank <= n else None
            rank = math.floor(n * q - z * math.sqrt(n * q * (1.0 - q)))
            if rank < 1:
                return None
            return min(rank, n)
        return bound_rank(
            n,
            self.quantile,
            self.confidence,
            side="upper" if self.kind is BoundKind.UPPER else "lower",
            method=self.method,
        )

    def _compute_bound(self) -> Optional[float]:
        n = len(self.history)
        if n == 0:
            return None
        if self.refit_mode in SKETCH_REFIT_MODES:
            # Approximate path: quote the sketch's estimate of the bound
            # rank's empirical probability.  The rank machinery (and thus
            # the binomial confidence margin) is identical to the exact
            # path; only the selection is approximate.
            rank = self._bound_rank(n)
            if rank is None:
                return None
            return self._sketch.quantile(min(1.0 - 1e-12, rank / n))
        if self.refit_mode == "recompute":
            # Legacy full-recompute refit (the bench-core A/B control):
            # re-sort the window and select.
            rank = self._bound_rank(n)
            if rank is None:
                return None
            return float(np.sort(self.history.arrival_view())[rank - 1])
        # Incremental path: the subscription selects through the window's
        # maintained sorted view — bit-identical to the recompute path,
        # O(observations since the last read) instead of O(n log n).
        return self.history.rank_value(self._rank_key)

    def _prefix_bounds(
        self, waits: np.ndarray, lengths: np.ndarray, window: int = 0,
        select: Optional[RangeSelect] = None, ordinal: int = 0,
        carry: Optional[dict] = None,
    ) -> np.ndarray:
        """Exact prefix order statistics at ``_bound_rank`` (see
        ``prefix_kernel``); ``NaN`` where the window is too small for a
        bound at this confidence."""
        ranks = self._bound_ranks(lengths)
        out = np.full(lengths.size, np.nan)
        quoted = np.flatnonzero(ranks > 0)
        if quoted.size:
            select = select or RangeSelect(waits)
            out[quoted] = select(
                np.zeros(quoted.size, dtype=np.intp), lengths[quoted],
                ranks[quoted] - 1,
            )
        return out

    def _bound_ranks(self, n: np.ndarray) -> np.ndarray:
        """``_bound_rank`` at each of ``n`` (``0`` for ``None``).

        From ``_normal_n_min`` up, ``_bound_rank``'s closed form is
        evaluated for every size at once: its ``sqrt``, ``ceil`` and
        ``floor`` are correctly rounded in numpy as in ``math``, so the
        ranks are the same integers.  Smaller sizes go through
        ``_bound_rank`` itself, once per distinct size.
        """
        ranks = np.zeros(n.size, dtype=np.intp)
        n_min = self._normal_n_min
        normal = n >= n_min if n_min is not None else np.zeros(n.size, dtype=bool)
        if normal.any():
            m = n[normal]
            q = self.quantile
            mq = m * q
            spread = self._z * np.sqrt(mq * (1.0 - q))
            if self.kind is BoundKind.UPPER:
                rank = np.maximum(np.ceil(mq + spread), 1)
                rank[rank > m] = 0
            else:
                rank = np.minimum(np.floor(mq - spread), m)
                rank[rank < 1] = 0
            ranks[normal] = rank
        small = np.flatnonzero(~normal & (n > 0))
        if small.size:
            sizes, at = np.unique(n[small], return_inverse=True)
            ranks[small] = np.array(
                [self._bound_rank(k) or 0 for k in sizes.tolist()], dtype=np.intp
            )[at]
        return ranks
