"""Tests for order-statistic helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.order_stats import (
    RangeSelect,
    order_statistic,
    quantile_index,
    rank_of_value,
)


class TestOrderStatistic:
    def test_one_indexed(self):
        values = [1.0, 2.0, 3.0]
        assert order_statistic(values, 1) == 1.0
        assert order_statistic(values, 3) == 3.0

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            order_statistic([1.0], 0)
        with pytest.raises(IndexError):
            order_statistic([1.0], 2)


class TestQuantileIndex:
    def test_ceiling_convention(self):
        assert quantile_index(100, 0.95) == 95
        assert quantile_index(10, 0.95) == 10
        assert quantile_index(10, 0.05) == 1
        assert quantile_index(3, 0.5) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            quantile_index(0, 0.5)
        with pytest.raises(ValueError):
            quantile_index(10, 1.0)

    @given(
        n=st.integers(min_value=1, max_value=100_000),
        q=st.floats(min_value=0.001, max_value=0.999),
    )
    @settings(max_examples=200)
    def test_index_always_valid_and_covers_quantile(self, n, q):
        k = quantile_index(n, q)
        assert 1 <= k <= n
        assert k / n >= q - 1e-12  # at least fraction q at or below rank k


class TestRankOfValue:
    def test_counts_at_or_below(self):
        values = [1.0, 2.0, 2.0, 3.0]
        assert rank_of_value(values, 2.0) == 3
        assert rank_of_value(values, 0.5) == 0
        assert rank_of_value(values, 10.0) == 4

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1
        ),
        probe=st.floats(min_value=0, max_value=100, allow_nan=False),
    )
    @settings(max_examples=100)
    def test_matches_naive_count(self, values, probe):
        values = sorted(values)
        assert rank_of_value(values, probe) == sum(v <= probe for v in values)


def _queries(n):
    """``(lo, hi, k)`` triples over ``n`` values: single-element and
    full ranges included, ``k`` anywhere in ``[0, hi - lo)``."""
    return st.integers(min_value=0, max_value=n - 1).flatmap(
        lambda lo: st.integers(min_value=lo + 1, max_value=n).flatmap(
            lambda hi: st.tuples(
                st.just(lo), st.just(hi),
                st.integers(min_value=0, max_value=hi - lo - 1),
            )
        )
    )


class TestRangeSelect:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            # Zeros and ties over-represented; no -0.0, which no wait is.
            st.one_of(st.just(0.0), st.sampled_from([1.0, 7.0]),
                      st.floats(min_value=0.0, max_value=1e6)),
            min_size=1, max_size=70,
        ),
        data=st.data(),
    )
    def test_matches_sorted_slices(self, values, data):
        values = np.asarray(values)
        triples = data.draw(st.lists(_queries(values.size), min_size=1, max_size=40))
        lo, hi, k = (np.asarray(column) for column in zip(*triples))
        start = data.draw(st.integers(min_value=0, max_value=int(lo.min())))
        want = [np.sort(values[a:b])[c] for a, b, c in triples]
        got = RangeSelect(values)(lo, hi, k)
        assert got.tobytes() == np.asarray(want).tobytes()
        # A view from ``start`` reads ``values[start:]``.
        shifted = RangeSelect(values).at(start)(lo - start, hi - start, k)
        assert shifted.tobytes() == got.tobytes()

    def test_single_value(self):
        assert RangeSelect([3.5])([0], [1], [0]).tolist() == [3.5]

    def test_no_queries(self):
        empty = np.empty(0, dtype=np.intp)
        assert RangeSelect([2.0, 1.0])(empty, empty, empty).size == 0
