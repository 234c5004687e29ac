"""Tests for the log-normal tolerance-bound predictor."""

import math

import numpy as np
import pytest

from repro.core.lognormal import (
    LogNormalPredictor,
    _factor_bucket,
    _factor_buckets,
)
from repro.core.predictor import BoundKind
from repro.stats.tolerance import normal_quantile_upper_factor


def feed(predictor, values):
    for value in values:
        predictor.observe(float(value))
    predictor.refit()
    return predictor


class TestBoundComputation:
    def test_matches_closed_form(self, rng):
        values = rng.lognormal(4, 1, 500)
        predictor = feed(LogNormalPredictor(), values)
        logs = np.log(values + 1.0)
        k = normal_quantile_upper_factor(_factor_bucket(500), 0.95, 0.95)
        expected = math.exp(logs.mean() + k * logs.std(ddof=1)) - 1.0
        assert predictor.predict() == pytest.approx(expected, rel=1e-9)

    def test_needs_two_observations(self):
        predictor = LogNormalPredictor()
        predictor.observe(5.0)
        predictor.refit()
        assert predictor.predict() is None
        predictor.observe(7.0)
        predictor.refit()
        assert predictor.predict() is not None

    def test_constant_history_degenerates_gracefully(self):
        predictor = feed(LogNormalPredictor(), [10.0] * 50)
        assert predictor.predict() == pytest.approx(10.0, rel=1e-6)

    def test_lower_bound_kind(self, rng):
        values = rng.lognormal(4, 1, 500)
        upper = feed(LogNormalPredictor(), values).predict()
        lower = feed(
            LogNormalPredictor(kind=BoundKind.LOWER), values
        ).predict()
        assert lower < upper

    def test_overflow_clamped_to_finite(self):
        # Absurd spread: the exponent would overflow without the clamp.
        predictor = feed(LogNormalPredictor(), [0.0, 1e300])
        assert math.isfinite(predictor.predict())

    def test_zero_waits_are_representable(self):
        predictor = feed(LogNormalPredictor(), [0.0] * 30 + [5.0] * 30)
        assert predictor.predict() > 0.0

    def test_invalid_shift(self):
        with pytest.raises(ValueError):
            LogNormalPredictor(shift=0.0)


class TestRunningSums:
    def test_incremental_equals_batch(self, rng):
        values = rng.lognormal(3, 1, 300)
        incremental = LogNormalPredictor()
        for value in values:
            incremental.observe(float(value))
            incremental.refit()
        batch = feed(LogNormalPredictor(), values)
        assert incremental.predict() == pytest.approx(batch.predict(), rel=1e-9)

    def test_trim_rebuilds_sums(self, rng):
        values = list(rng.lognormal(3, 1, 300))
        predictor = LogNormalPredictor(trim=True)
        for value in values:
            predictor.observe(float(value))
        predictor.finish_training()
        bound = predictor.predict()
        for _ in range(predictor.miss_threshold):
            predictor.observe(bound * 100, predicted=bound)
        # After the change point, the fit must equal a fresh fit on the
        # retained suffix.
        retained = predictor.history.values
        fresh = feed(LogNormalPredictor(), retained)
        predictor.refit()
        assert predictor.predict() == pytest.approx(fresh.predict(), rel=1e-9)


class TestNames:
    def test_variant_names(self):
        assert LogNormalPredictor(trim=False).name == "logn-notrim"
        assert LogNormalPredictor(trim=True).name == "logn-trim"


class TestFactorBucketing:
    def test_exact_below_1000(self):
        assert _factor_bucket(999) == 999
        assert _factor_bucket(59) == 59

    def test_coarse_above_1000(self):
        assert _factor_bucket(12345) == 12300
        assert _factor_bucket(1234) == 1230

    def test_vectorized_buckets_match_scalar(self):
        # Every size a replay's kernel can ask for below 10^5, and both
        # sides of every decade edge the digit count changes at.
        edges = [
            e + d for k in range(3, 13) for e in (10 ** k,) for d in (-1, 0, 1)
        ]
        n = np.concatenate((np.arange(1, 100_001), edges))
        want = [_factor_bucket(k) for k in n.tolist()]
        assert _factor_buckets(n).tolist() == want

    def test_vectorized_factors_match_scalar(self):
        n = np.array([2, 3, 59, 999, 1000, 1001, 1234, 1239, 99_999, 10 ** 6])
        for kind, q in ((BoundKind.UPPER, 0.95), (BoundKind.LOWER, 0.05)):
            predictor = LogNormalPredictor(quantile=q, kind=kind)
            want = [predictor._factor(k) for k in n.tolist()]
            assert predictor._factors(n).tolist() == want

    def test_bucketing_error_is_negligible(self):
        for n in (1500, 15000, 150000):
            exact = normal_quantile_upper_factor(n, 0.95, 0.95)
            bucketed = normal_quantile_upper_factor(_factor_bucket(n), 0.95, 0.95)
            assert bucketed == pytest.approx(exact, rel=2e-3)


class TestCoverage:
    def test_sequential_coverage_on_true_lognormal(self, rng):
        """On data that really is (shifted) log-normal, coverage >= 0.95."""
        predictor = LogNormalPredictor()
        values = np.exp(rng.normal(4, 1.5, 5000)) - 1.0
        values = np.clip(values, 0.0, None)
        hits = total = 0
        for value in values:
            bound = predictor.predict()
            if bound is not None:
                total += 1
                hits += value <= bound
            predictor.observe(float(value))
            predictor.refit()
        assert total > 4500
        assert hits / total >= 0.945
