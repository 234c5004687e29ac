"""Tests for the baseline predictors."""

import numpy as np
import pytest

from repro.baselines import (
    DowneyLogUniformPredictor,
    MaxObservedPredictor,
    MeanWaitPredictor,
    PointQuantilePredictor,
)
from repro.core.predictor import BoundKind
from repro.simulator.replay import replay_single

from tests.conftest import make_trace


def feed(predictor, values):
    for value in values:
        predictor.observe(float(value))
    predictor.refit()
    return predictor


class TestMaxObserved:
    def test_quotes_the_maximum(self, rng):
        values = rng.lognormal(3, 1, 200)
        predictor = feed(MaxObservedPredictor(), values)
        assert predictor.predict() == values.max()

    def test_lower_kind_quotes_minimum(self, rng):
        values = rng.lognormal(3, 1, 200)
        predictor = feed(MaxObservedPredictor(kind=BoundKind.LOWER), values)
        assert predictor.predict() == values.min()

    def test_nearly_always_correct_but_useless(self, rng):
        trace = make_trace(rng.lognormal(4, 1.5, 2000))
        result = replay_single(trace, MaxObservedPredictor())
        assert result.fraction_correct > 0.99
        # ... and absurdly conservative: the typical wait is a tiny fraction
        # of the quoted bound.
        assert result.median_ratio < 0.05

    def test_extreme_recomputed_after_trim(self):
        predictor = MaxObservedPredictor(trim=True)
        for value in [1.0, 100.0] + [5.0] * 100:
            predictor.observe(value)
        predictor.history.trim_to_recent(50)
        predictor._on_history_trimmed()
        predictor.refit()
        assert predictor.predict() == 5.0


class TestPointQuantile:
    def test_quotes_empirical_quantile(self, rng):
        values = rng.lognormal(3, 1, 500)
        predictor = feed(PointQuantilePredictor(), values)
        expected = float(np.sort(values)[int(np.ceil(500 * 0.95)) - 1])
        assert predictor.predict() == expected

    def test_below_bmbp_bound(self, rng):
        from repro.core.bmbp import BMBPPredictor

        values = rng.lognormal(3, 1, 500)
        point = feed(PointQuantilePredictor(), values).predict()
        bmbp = feed(BMBPPredictor(), values).predict()
        assert point <= bmbp  # no confidence margin


    @pytest.mark.parametrize("q", [0.95, 0.5, 0.25, 0.05, 1 / 3, 0.99])
    def test_vectorized_ranks_match_scalar(self, q):
        predictor = PointQuantilePredictor(quantile=q)
        n = np.arange(1, 100_001)
        want = [predictor._point_rank(k) for k in n.tolist()]
        assert predictor._point_ranks(n).tolist() == want


class TestDowney:
    def test_bound_within_sample_log_range(self, rng):
        values = rng.lognormal(3, 1, 300)
        predictor = feed(DowneyLogUniformPredictor(), values)
        assert values.min() <= predictor.predict() <= values.max()

    def test_needs_two_points(self):
        predictor = DowneyLogUniformPredictor()
        predictor.observe(5.0)
        predictor.refit()
        assert predictor.predict() is None

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            DowneyLogUniformPredictor(shift=-1.0)


class TestMeanWait:
    def test_quotes_the_mean(self):
        predictor = feed(MeanWaitPredictor(), [1.0, 2.0, 3.0])
        assert predictor.predict() == pytest.approx(2.0)

    def test_under_covers_heavy_tails(self, rng):
        trace = make_trace(rng.lognormal(4, 1.5, 2000))
        result = replay_single(trace, MeanWaitPredictor())
        # For a heavy-tailed distribution the mean sits far below the .95
        # quantile: nowhere near the 0.95 correctness target.
        assert result.fraction_correct < 0.95

    def test_empty_history(self):
        predictor = MeanWaitPredictor()
        predictor.refit()
        assert predictor.predict() is None
