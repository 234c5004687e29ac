"""Order-statistic helpers.

BMBP's confidence bounds are order statistics of the observed history, so the
core operations here are "give me the k-th smallest value" and "which rank
does a given quantile correspond to".  Ranks are 1-indexed throughout, to
match the statistical convention (and the paper's notation ``x_(k)``).
"""

from __future__ import annotations

import heapq
import math
from typing import Sequence

import numpy as np

__all__ = [
    "order_statistic",
    "prefix_order_statistics",
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


def prefix_order_statistics(
    values: Sequence[float], lengths: Sequence[int], ranks: Sequence[int]
) -> np.ndarray:
    """``sorted(values[:m])[k - 1]`` for every ``(m, k)`` pair, in one pass.

    ``lengths`` must be non-decreasing and each rank ``k`` within
    ``[1, m]``.  The growing prefix is split between two heaps: a max-heap
    of its ``k`` smallest values (whose top is the answer) and a min-heap
    of the rest.  Each new value enters one heap, and each query moves
    values across the split until the low heap holds exactly ``k``; when
    consecutive ranks differ by at most the values added between them (a
    quantile rank, for one) that is O(log m) per value.  The answers are
    the stored floats themselves, so they equal the sorted-prefix reads
    bit for bit.
    """
    low: list = []  # negated: a max-heap of the k smallest
    high: list = []  # min-heap of the rest
    push, pop = heapq.heappush, heapq.heappop
    out = np.empty(len(lengths))
    items = np.asarray(values, dtype=float).tolist()
    fed = 0
    for i, (m, k) in enumerate(zip(lengths, ranks)):
        for x in items[fed:m]:
            if low and x < -low[0]:
                push(low, -x)
            else:
                push(high, x)
        fed = m
        while len(low) < k:
            push(low, -pop(high))
        while len(low) > k:
            push(high, -pop(low))
        out[i] = -low[0]
    return out
