"""Property-based tests for ``HistoryWindow`` against a naive list model.

The window is the one data structure every predictor sits on, and its
eviction/compaction/lazy-merge machinery has exactly the kind of offset
arithmetic property testing exists for.  The model is the obvious thing:
a plain Python list with the same operations applied.  After every step,
the window must agree with the model on length, arrival order, and sorted
order — and ``arrival_view()`` must alias the internal buffer (zero-copy
is part of its contract, not an optimization detail).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.history import HistoryWindow

# Finite, order-preserving floats; NaN would break the sorted-view model
# (and is rejected upstream by the predictors).
VALUES = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), VALUES),
        st.tuples(st.just("extend"), st.lists(VALUES, max_size=20)),
        st.tuples(st.just("extend-array"), st.lists(VALUES, max_size=20)),
        st.tuples(st.just("trim"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("clear"), st.none()),
    ),
    max_size=40,
)


def apply_to_model(model, max_size, op, arg):
    if op == "append":
        model.append(float(arg))
    elif op in ("extend", "extend-array"):
        model.extend(float(v) for v in arg)
    elif op == "trim":
        if arg < len(model):
            del model[: len(model) - arg]
    elif op == "clear":
        model.clear()
    if max_size is not None and len(model) > max_size:
        del model[: len(model) - max_size]


def apply_to_window(window, op, arg):
    if op == "append":
        window.append(arg)
    elif op == "extend":
        window.extend(arg)
    elif op == "extend-array":
        window.extend(np.asarray(arg, dtype=float))
    elif op == "trim":
        window.trim_to_recent(arg)
    elif op == "clear":
        window.clear()


def assert_agrees(window, model):
    assert len(window) == len(model)
    assert bool(window) == bool(model)
    assert window.values == model
    view = window.arrival_view()
    assert view.tolist() == model
    if len(model) > 0:
        # Zero-copy contract: the view aliases the internal buffer.
        assert np.shares_memory(view, window._buf)
    assert window.sorted_values().tolist() == sorted(model)


class TestAgainstListModel:
    @given(ops=OPS, max_size=st.one_of(st.none(), st.integers(1, 7)))
    @settings(max_examples=150, deadline=None)
    def test_any_op_sequence_matches_naive_list(self, ops, max_size):
        """Interleaved appends/extends/trims/clears never diverge from a list.

        ``max_size`` up to 7 with op batches up to 20 forces eviction and
        in-place compaction constantly; checking after *every* op (not just
        at the end) catches lazy sorted-view staleness.
        """
        window = HistoryWindow(max_size=max_size)
        model = []
        for op, arg in ops:
            apply_to_window(window, op, arg)
            apply_to_model(model, max_size, op, arg)
            assert_agrees(window, model)

    @given(values=st.lists(VALUES, max_size=30), max_size=st.one_of(st.none(), st.integers(1, 7)))
    @settings(max_examples=80, deadline=None)
    def test_constructor_seed_equals_appends(self, values, max_size):
        seeded = HistoryWindow(values, max_size=max_size)
        appended = HistoryWindow(max_size=max_size)
        for v in values:
            appended.append(v)
        assert seeded.values == appended.values
        assert seeded.sorted_values().tolist() == appended.sorted_values().tolist()

    @given(values=st.lists(VALUES, min_size=1, max_size=50))
    @settings(max_examples=80, deadline=None)
    def test_sorted_read_between_appends_stays_correct(self, values):
        """The lazy merge path (read, append more, read again) never drifts."""
        window = HistoryWindow()
        for i, v in enumerate(values):
            window.append(v)
            if i % 3 == 0:  # interleave reads to exercise incremental merges
                assert window.sorted_values().tolist() == sorted(values[: i + 1])
        assert window.sorted_values().tolist() == sorted(values)


def _check_ranks(window, model):
    """Every interesting rank agrees with ``sorted(model)[rank - 1]`` —
    bit-identically, which is the refit engine's exactness contract."""
    n = len(model)
    if n == 0:
        return
    reference = sorted(model)
    ranks = {1, n, (n + 1) // 2, max(1, -(-n * 95 // 100))}
    for rank in ranks:
        assert window.order_statistic(rank) == reference[rank - 1]


class TestOrderStatisticMaintenance:
    """The incremental refit engine's exactness tier: order statistics and
    rank subscriptions served from the maintained view are bit-identical
    to a naive re-sort, at every step of any mutation sequence."""

    @given(ops=OPS, max_size=st.one_of(st.none(), st.integers(1, 7)))
    @settings(max_examples=150, deadline=None)
    def test_order_statistics_match_naive_select_at_every_step(self, ops, max_size):
        """Selection through the query-time fold paths (scalar inserts,
        vectorized merges, staged evictions, post-trim resort) never
        diverges from ``sorted(history)[k]``."""
        window = HistoryWindow(max_size=max_size)
        model = []
        for op, arg in ops:
            apply_to_window(window, op, arg)
            apply_to_model(model, max_size, op, arg)
            _check_ranks(window, model)
        assert window.sorted_values().tolist() == sorted(model)

    @given(ops=OPS, max_size=st.one_of(st.none(), st.integers(1, 7)))
    @settings(max_examples=100, deadline=None)
    def test_rank_subscriptions_answer_from_the_shared_view(self, ops, max_size):
        """A subscribed ``ceil(0.95 n)`` rank (the point-quantile shape) and
        a size-capped rank (the BMBP shape, None below a minimum size)
        both track the naive answer through appends, evictions, and
        change-point-style trims."""
        window = HistoryWindow(max_size=max_size)
        window.subscribe_rank("q95", lambda n: max(1, -(-n * 95 // 100)))
        window.subscribe_rank("gated", lambda n: n if n >= 3 else None)
        model = []
        for op, arg in ops:
            apply_to_window(window, op, arg)
            apply_to_model(model, max_size, op, arg)
            n = len(model)
            reference = sorted(model)
            expected_q95 = None if n == 0 else reference[max(1, -(-n * 95 // 100)) - 1]
            assert window.rank_value("q95") == expected_q95
            expected_gated = None if n < 3 else reference[-1]
            assert window.rank_value("gated") == expected_gated
        assert set(window.subscriptions()) == {"q95", "gated"}


class TestEvictionAtScale:
    def test_bounded_window_over_many_compactions(self):
        """1000 appends into max_size=16: dozens of in-place compactions,
        window always the most recent 16 in order."""
        window = HistoryWindow(max_size=16)
        expected = []
        for i in range(1000):
            value = float((i * 7919) % 1000)  # non-monotonic, no pattern
            window.append(value)
            expected.append(value)
            expected = expected[-16:]
            if i % 50 == 0:
                assert window.values == expected
                assert window.sorted_values().tolist() == sorted(expected)
        assert window.values == expected
        assert window.sorted_values().tolist() == sorted(expected)
        # The buffer never grew: bounded windows stay bounded in memory.
        assert window._buf.size == max(2 * 16, 64)

    def test_unbounded_trim_then_refill(self):
        window = HistoryWindow(range(500))
        window.trim_to_recent(10)
        assert window.values == [float(v) for v in range(490, 500)]
        window.extend(range(20))
        assert len(window) == 30
        assert window.sorted_values().tolist() == sorted(
            [float(v) for v in range(490, 500)] + [float(v) for v in range(20)]
        )
