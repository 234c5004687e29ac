"""Quantile confidence bounds computed from samples.

Thin layer over :mod:`repro.core.binomial` that turns bound *ranks* into
bound *values* by indexing order statistics, and packages the result with
its provenance (rank, method, sample size) for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core import binomial

__all__ = [
    "QuantileBound",
    "bound_rank",
    "lower_confidence_bound",
    "two_sided_confidence_interval",
    "upper_confidence_bound",
]

#: Method selector values accepted by the bound functions.
METHODS = ("auto", "exact", "normal")


@dataclass(frozen=True)
class QuantileBound:
    """A one-sided confidence bound on a population quantile.

    Attributes
    ----------
    value:
        The bound itself (an order statistic of the sample).
    rank:
        1-indexed rank of the order statistic used.
    n:
        Sample size the bound was computed from.
    quantile:
        Population quantile being bounded.
    confidence:
        Confidence level of the bound.
    side:
        ``"upper"`` or ``"lower"``.
    method:
        ``"exact"`` (binomial CDF inversion) or ``"normal"`` (CLT
        approximation).
    """

    value: float
    rank: int
    n: int
    quantile: float
    confidence: float
    side: str
    method: str


def _resolve_method(method: str, n: int, q: float) -> str:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if method == "auto":
        return "normal" if binomial.use_normal_approximation(n, q) else "exact"
    return method


def _as_sorted_array(sample: Sequence[float], assume_sorted: bool) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim != 1:
        raise ValueError("sample must be one-dimensional")
    if not assume_sorted:
        arr = np.sort(arr)
    return arr


def bound_rank(
    n: int,
    quantile: float,
    confidence: float,
    side: str = "upper",
    method: str = "auto",
) -> Optional[int]:
    """The 1-indexed order-statistic rank a bound at this level selects.

    The single rank-resolution rule shared by the bound functions below,
    :class:`~repro.core.bmbp.BMBPPredictor`, and the
    :meth:`~repro.core.history.HistoryWindow.subscribe_rank` resolvers the
    predictors register — one definition, so the predictors' refits and
    the bound functions cannot drift apart.  Returns ``None`` when no
    rank of ``n`` observations attains the requested level.  The
    underlying binomial searches are memoized, so resolving a rank is an
    O(1) dictionary hit in steady state.
    """
    if n <= 0:
        return None
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    chosen = _resolve_method(method, n, quantile)
    if side == "upper":
        if chosen == "exact":
            return binomial.upper_bound_rank(n, quantile, confidence)
        return binomial.normal_approx_upper_rank(n, quantile, confidence)
    if chosen == "exact":
        return binomial.lower_bound_rank(n, quantile, confidence)
    return binomial.normal_approx_lower_rank(n, quantile, confidence)


def upper_confidence_bound(
    sample: Sequence[float],
    quantile: float,
    confidence: float,
    method: str = "auto",
    assume_sorted: bool = False,
) -> Optional[QuantileBound]:
    """Level-``confidence`` upper bound on the ``quantile``-quantile.

    Returns ``None`` when the sample is too small for the requested level
    (fewer than ``minimum_sample_size(quantile, confidence)`` points for the
    exact method).
    """
    arr = _as_sorted_array(sample, assume_sorted)
    n = arr.size
    if n == 0:
        return None
    chosen = _resolve_method(method, n, quantile)
    if chosen == "exact":
        rank = binomial.upper_bound_rank(n, quantile, confidence)
    else:
        rank = binomial.normal_approx_upper_rank(n, quantile, confidence)
    if rank is None:
        return None
    return QuantileBound(
        value=float(arr[rank - 1]),
        rank=rank,
        n=n,
        quantile=quantile,
        confidence=confidence,
        side="upper",
        method=chosen,
    )


def lower_confidence_bound(
    sample: Sequence[float],
    quantile: float,
    confidence: float,
    method: str = "auto",
    assume_sorted: bool = False,
) -> Optional[QuantileBound]:
    """Level-``confidence`` lower bound on the ``quantile``-quantile."""
    arr = _as_sorted_array(sample, assume_sorted)
    n = arr.size
    if n == 0:
        return None
    chosen = _resolve_method(method, n, quantile)
    if chosen == "exact":
        rank = binomial.lower_bound_rank(n, quantile, confidence)
    else:
        rank = binomial.normal_approx_lower_rank(n, quantile, confidence)
    if rank is None:
        return None
    return QuantileBound(
        value=float(arr[rank - 1]),
        rank=rank,
        n=n,
        quantile=quantile,
        confidence=confidence,
        side="lower",
        method=chosen,
    )


def two_sided_confidence_interval(
    sample: Sequence[float],
    quantile: float,
    confidence: float,
    method: str = "auto",
    assume_sorted: bool = False,
) -> Optional[Tuple[QuantileBound, QuantileBound]]:
    """A two-sided confidence interval for the ``quantile``-quantile.

    Splits the allowed miss probability evenly between the two tails
    (Bonferroni), so each one-sided bound is computed at level
    ``(1 + confidence) / 2``.  Returns ``None`` if either side is
    unattainable at the sample size.
    """
    arr = _as_sorted_array(sample, assume_sorted)
    side_confidence = (1.0 + confidence) / 2.0
    lower = lower_confidence_bound(
        arr, quantile, side_confidence, method=method, assume_sorted=True
    )
    upper = upper_confidence_bound(
        arr, quantile, side_confidence, method=method, assume_sorted=True
    )
    if lower is None or upper is None:
        return None
    return lower, upper
