"""Order-statistic helpers.

BMBP's confidence bounds are order statistics of the observed history, so the
core operations here are "give me the k-th smallest value" and "which rank
does a given quantile correspond to".  Ranks are 1-indexed throughout, to
match the statistical convention (and the paper's notation ``x_(k)``).
"""

from __future__ import annotations

import copy
import math
from typing import Sequence

import numpy as np

__all__ = [
    "RangeSelect",
    "order_statistic",
    "quantile_index",
    "rank_of_value",
]


def order_statistic(sorted_values: Sequence[float], k: int) -> float:
    """Return the k-th order statistic (1-indexed) of an ascending sequence.

    Parameters
    ----------
    sorted_values:
        Sample sorted in ascending order.
    k:
        1-indexed rank; ``k=1`` is the minimum, ``k=len(sorted_values)`` the
        maximum.

    Raises
    ------
    IndexError
        If ``k`` is outside ``[1, len(sorted_values)]``.
    """
    n = len(sorted_values)
    if not 1 <= k <= n:
        raise IndexError(f"order statistic rank {k} outside [1, {n}]")
    return float(sorted_values[k - 1])


def quantile_index(n: int, q: float) -> int:
    """Return the 1-indexed rank of the empirical q-quantile of a size-n sample.

    Uses the conservative ceiling convention ``ceil(n * q)`` (clamped to at
    least 1) so that at least a fraction ``q`` of the sample lies at or below
    the returned rank.
    """
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    return max(1, math.ceil(n * q))


def rank_of_value(sorted_values: Sequence[float], value: float) -> int:
    """Return how many sample elements are <= ``value``.

    This is the empirical CDF numerator: ``rank_of_value(xs, x) / len(xs)``
    is the fraction of the sample at or below ``x``.
    """
    return int(np.searchsorted(sorted_values, value, side="right"))


class RangeSelect:
    """``sorted(values[lo:hi])[k]`` for whole arrays of ``(lo, hi, k)``.

    A wavelet matrix over the values' ranks.  Each value is replaced by
    its position in a stable sort, so the codes are distinct and a range's
    k-th smallest code is its k-th smallest value.  The codes' bits are
    stored level by level, most significant first: each level stably
    partitions the codes by its bit (zeros first) and keeps
    ``zeros[i]``, the number of zero bits among the first ``i`` codes.
    A query descends one level per bit.  Of its range's codes, those with
    a zero bit sit at ``[zeros[lo], zeros[hi])`` on the next level and
    the rest at the same ranks past all the zeros, and the k-th smallest
    lies among the zeros iff ``k`` is below their count.  So
    ``ceil(log2 N)`` vectorized steps answer every query at once.  The
    answer is a stored float, equal to the sorted read bit for bit.  The
    index takes ``4 (N + 1) ceil(log2 N)`` bytes.  ``at(start)`` views the
    same index as one over ``values[start:]``.
    """

    _offset = 0

    def __init__(self, values: Sequence[float]):
        values = np.asarray(values, dtype=float)
        n = values.size
        order = np.argsort(values, kind="stable")
        self._sorted = values[order]
        codes = np.empty(n, dtype=np.int32)
        codes[order] = np.arange(n, dtype=np.int32)
        depth = max(1, (n - 1).bit_length())
        self._zeros = np.zeros((depth, n + 1), dtype=np.int32)
        for level in range(depth):
            zero = (codes >> (depth - 1 - level)) & 1 == 0
            np.cumsum(zero, out=self._zeros[level, 1:])
            codes = np.concatenate((codes[zero], codes[~zero]))

    def at(self, start: int) -> "RangeSelect":
        """This index, with every position counted from ``start``."""
        view = copy.copy(self)
        view._offset = self._offset + start
        return view

    def __call__(self, lo, hi, k) -> np.ndarray:
        """The ``k``-th smallest (0-indexed) of ``values[lo:hi]`` for each
        triple of equal-length arrays; each ``k`` must lie in
        ``[0, hi - lo)``."""
        lo = np.asarray(lo, dtype=np.intp) + self._offset
        hi = np.asarray(hi, dtype=np.intp) + self._offset
        k = np.asarray(k, dtype=np.intp)
        code = np.zeros(k.shape, dtype=np.intp)
        for zeros in self._zeros:
            below_lo = zeros[lo]
            below_hi = zeros[hi]
            count = below_hi - below_lo
            one = k >= count
            k = np.where(one, k - count, k)
            lo = np.where(one, lo - below_lo + zeros[-1], below_lo)
            hi = np.where(one, hi - below_hi + zeros[-1], below_hi)
            code = (code << 1) | one
        return self._sorted[code]
