"""Tests for the BMBP predictor."""

import numpy as np
import pytest

from repro.core import binomial
from repro.core.bmbp import BMBPPredictor
from repro.core.predictor import BoundKind
from repro.core.quantile import upper_confidence_bound


class TestBoundComputation:
    def test_matches_direct_quantile_bound(self, lognormal_sample):
        predictor = BMBPPredictor(method="exact")
        for value in lognormal_sample:
            predictor.observe(float(value))
        predictor.refit()
        direct = upper_confidence_bound(lognormal_sample, 0.95, 0.95, method="exact")
        assert predictor.predict() == direct.value

    def test_none_below_minimum_history(self):
        predictor = BMBPPredictor(method="exact")
        for value in range(58):
            predictor.observe(float(value))
        predictor.refit()
        assert predictor.predict() is None
        predictor.observe(58.0)
        predictor.refit()
        assert predictor.predict() is not None

    def test_lower_bound_kind(self, lognormal_sample):
        predictor = BMBPPredictor(quantile=0.25, kind=BoundKind.LOWER)
        for value in lognormal_sample:
            predictor.observe(float(value))
        predictor.refit()
        assert predictor.predict() <= float(np.quantile(lognormal_sample, 0.25))

    def test_invalid_method(self):
        with pytest.raises(ValueError):
            BMBPPredictor(method="bogus")

    def test_invalid_quantile_and_confidence(self):
        with pytest.raises(ValueError):
            BMBPPredictor(quantile=1.0)
        with pytest.raises(ValueError):
            BMBPPredictor(confidence=0.0)


class TestVectorizedRanks:
    """``_bound_ranks`` (the prefix kernel's ranks) against the scalar
    ``_bound_rank`` the per-event refit resolves, ``None`` read as 0."""

    @pytest.mark.parametrize("kind, q", [
        (BoundKind.UPPER, 0.95), (BoundKind.LOWER, 0.05), (BoundKind.LOWER, 0.25),
    ])
    @pytest.mark.parametrize("method", ["auto", "normal"])
    def test_closed_form_ranks_match_scalar(self, kind, q, method):
        predictor = BMBPPredictor(quantile=q, kind=kind, method=method)
        n = np.arange(1, 100_001)
        want = [predictor._bound_rank(k) or 0 for k in n.tolist()]
        assert predictor._bound_ranks(n).tolist() == want

    @pytest.mark.parametrize("kind, q", [
        (BoundKind.UPPER, 0.95), (BoundKind.LOWER, 0.25),
    ])
    def test_exact_ranks_match_scalar(self, kind, q):
        # ``exact`` resolves every size through the scalar binomial search
        # (about 0.2 ms a size), so this sweeps the sizes a trimmed window
        # sees densely and the rest up to 10^5 by a stride.
        predictor = BMBPPredictor(quantile=q, kind=kind, method="exact")
        n = np.concatenate((np.arange(1, 2001), np.arange(2001, 100_001, 997)))
        want = [predictor._bound_rank(k) or 0 for k in n.tolist()]
        assert predictor._bound_ranks(n).tolist() == want


class TestProtocol:
    def test_predict_is_cached_until_refit(self):
        predictor = BMBPPredictor()
        for value in range(100):
            predictor.observe(float(value))
        predictor.refit()
        before = predictor.predict()
        predictor.observe(1e9)  # not yet reflected
        assert predictor.predict() == before
        predictor.refit()
        assert predictor.predict() >= before

    def test_refit_if_stale_skips_when_unchanged(self):
        predictor = BMBPPredictor()
        for value in range(100):
            predictor.observe(float(value))
        predictor.refit()
        first = predictor.predict()
        predictor.refit_if_stale()  # no new observations: no-op
        assert predictor.predict() == first

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            BMBPPredictor().observe(-1.0)

    def test_describe(self):
        predictor = BMBPPredictor()
        for value in range(100):
            predictor.observe(float(value))
        predictor.refit()
        description = predictor.describe()
        assert description.quantile == 0.95
        assert description.kind is BoundKind.UPPER
        assert description.n_history == 100
        assert description.method == "bmbp"

    def test_describe_none_before_data(self):
        assert BMBPPredictor().describe() is None


class TestTrainingAndTrimming:
    def test_finish_training_sets_threshold_from_autocorrelation(self, rng):
        predictor = BMBPPredictor()
        # Strongly autocorrelated history -> larger threshold than i.i.d.
        level = 0.0
        for _ in range(2000):
            level = 0.93 * level + rng.normal()
            predictor.observe(float(np.exp(level)))
        predictor.finish_training()
        assert predictor.trained
        assert predictor.miss_threshold >= 4

    def test_iid_training_keeps_small_threshold(self, rng):
        predictor = BMBPPredictor()
        for value in rng.lognormal(3, 1, 500):
            predictor.observe(float(value))
        predictor.finish_training()
        assert predictor.miss_threshold == 3

    def test_consecutive_misses_trigger_trim(self):
        predictor = BMBPPredictor()
        for value in range(200):
            predictor.observe(float(value % 50))
        predictor.finish_training()
        assert len(predictor.history) == 200
        bound = predictor.predict()
        # Feed the threshold's worth of scored misses.
        for _ in range(predictor.miss_threshold):
            predictor.observe(bound + 1000.0, predicted=bound)
        assert len(predictor.history) == predictor.trim_length
        assert predictor.detector.change_points_seen == 1

    def test_unscored_observations_never_trigger_trim(self):
        predictor = BMBPPredictor()
        for value in range(200):
            predictor.observe(float(value % 50))
        predictor.finish_training()
        for _ in range(10):
            predictor.observe(1e9)  # no predicted= -> not a scored miss
        assert len(predictor.history) == 210

    def test_trim_disabled_variant(self):
        predictor = BMBPPredictor(trim=False)
        for value in range(200):
            predictor.observe(float(value % 50))
        predictor.finish_training()
        bound = predictor.predict()
        for _ in range(10):
            predictor.observe(bound + 1000.0, predicted=bound)
        assert len(predictor.history) == 210
        assert predictor.miss_threshold is None

    def test_trim_length_is_binomial_minimum(self):
        assert BMBPPredictor().trim_length == binomial.minimum_sample_size(0.95, 0.95)
        lower = BMBPPredictor(quantile=0.25, kind=BoundKind.LOWER)
        assert lower.trim_length == binomial.minimum_sample_size_lower(0.25, 0.95)

    def test_lower_bound_miss_direction(self):
        predictor = BMBPPredictor(quantile=0.25, kind=BoundKind.LOWER)
        for value in range(200):
            predictor.observe(100.0 + value % 10)
        predictor.finish_training()
        bound = predictor.predict()
        # For a lower bound, a miss is an observation *below* the bound.
        for _ in range(predictor.miss_threshold):
            predictor.observe(max(bound - 50.0, 0.0), predicted=bound)
        assert predictor.detector.change_points_seen == 1


class TestStatisticalBehavior:
    def test_coverage_on_iid_stream(self, rng):
        """Sequential one-step-ahead coverage on i.i.d. data reaches ~0.95."""
        predictor = BMBPPredictor()
        values = rng.lognormal(4, 1.5, 6000)
        hits = total = 0
        for value in values:
            bound = predictor.predict()
            if bound is not None:
                total += 1
                hits += value <= bound
            predictor.observe(float(value), predicted=bound)
            predictor.refit()
        assert total > 5000
        assert hits / total >= 0.945

    def test_bound_tracks_level_shift(self, rng):
        predictor = BMBPPredictor()
        for value in rng.lognormal(3, 0.5, 500):
            predictor.observe(float(value))
        predictor.finish_training()
        low_bound = predictor.predict()
        # Shift the level up 20x; feed scored observations so trims fire.
        for value in rng.lognormal(3 + np.log(20), 0.5, 500):
            predictor.observe(float(value), predicted=predictor.predict())
            predictor.refit()
        assert predictor.predict() > low_bound * 5


class TestSlidingWindow:
    def test_window_caps_history(self, rng):
        predictor = BMBPPredictor(trim=False, max_history=200)
        for wait in rng.lognormal(3, 1, 1000):
            predictor.observe(float(wait))
        assert len(predictor.history) == 200

    def test_window_tracks_level_shift_without_detector(self, rng):
        predictor = BMBPPredictor(trim=False, max_history=300)
        for wait in rng.lognormal(2, 0.5, 600):
            predictor.observe(float(wait))
        predictor.refit()
        low = predictor.predict()
        for wait in rng.lognormal(6, 0.5, 600):
            predictor.observe(float(wait))
        predictor.refit()
        assert predictor.predict() > low * 10

    def test_unbounded_by_default(self, rng):
        predictor = BMBPPredictor()
        for wait in rng.lognormal(3, 1, 500):
            predictor.observe(float(wait))
        assert len(predictor.history) == 500
