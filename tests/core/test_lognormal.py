"""Tests for the log-normal tolerance-bound predictor."""

import math

import numpy as np
import pytest

from scipy import stats as sps

from repro.core import lognormal
from repro.core.lognormal import (
    LogNormalPredictor,
    _factor_bucket,
    _factor_buckets,
    _FactorMemo,
)
from repro.core.predictor import BoundKind
from repro.stats.tolerance import (
    normal_quantile_lower_factor,
    normal_quantile_upper_factor,
)

#: Both sides of every decade edge the bucket digit count changes at.
DECADE_EDGES = [10 ** k + d for k in range(3, 13) for d in (-1, 0, 1)]


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
        n = np.concatenate((np.arange(1, 100_001), DECADE_EDGES))
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


class TestFactorMemo:
    @pytest.mark.parametrize(
        "quantile, confidence, kind",
        [
            (0.95, 0.95, BoundKind.UPPER),
            (0.05, 0.95, BoundKind.LOWER),
            (0.9, 0.8, BoundKind.UPPER),
        ],
    )
    def test_vectorized_fill_matches_scalar_bit_for_bit(
        self, quantile, confidence, kind
    ):
        memo = _FactorMemo(quantile, confidence, kind)
        memo.prime(100_000)
        memo.fill(np.unique(_factor_buckets(np.array(DECADE_EDGES))))
        scalar = (
            normal_quantile_upper_factor
            if kind is BoundKind.UPPER
            else normal_quantile_lower_factor
        )
        buckets = sorted(memo._values)
        want = np.array([scalar(b, quantile, confidence) for b in buckets])
        got = np.array([memo._values[b] for b in buckets])
        both_nan = np.isnan(want) & np.isnan(got)
        assert np.array_equal(
            got.view(np.int64)[~both_nan], want.view(np.int64)[~both_nan]
        )

    @pytest.fixture
    def ppf_calls(self, monkeypatch):
        calls = []
        ppf = sps.nct.ppf

        def spy(q, df, nc):
            calls.append(np.atleast_1d(df) + 1)
            return ppf(q, df, nc)

        monkeypatch.setattr(sps.nct, "ppf", spy)
        return calls

    def test_reprime_is_free_and_growth_fills_only_new_buckets(self, ppf_calls):
        memo = _FactorMemo(0.95, 0.95, BoundKind.UPPER)
        memo.prime(5_000)
        assert len(ppf_calls) == 1
        assert ppf_calls[0].tolist() == np.unique(
            _factor_buckets(np.arange(2, 5_001))
        ).tolist()
        memo.prime(5_000)
        memo.prime(4_000)
        assert len(ppf_calls) == 1
        memo.prime(20_000)
        assert len(ppf_calls) == 2
        new = set(_factor_buckets(np.arange(2, 20_001)).tolist()) - set(
            ppf_calls[0].tolist()
        )
        assert sorted(ppf_calls[1].tolist()) == sorted(new)

    def test_scalar_miss_fills_one_bucket(self, ppf_calls, monkeypatch):
        monkeypatch.setattr(lognormal, "_FACTOR_MEMOS", {})
        predictor = LogNormalPredictor()
        value = predictor._factor(123_456)
        assert predictor._factor(123_499) == value
        assert [c.tolist() for c in ppf_calls] == [[123_000]]
        assert value == normal_quantile_upper_factor(123_000, 0.95, 0.95)

    def test_prime_fills_the_memo_refits_read(self, ppf_calls, monkeypatch):
        monkeypatch.setattr(lognormal, "_FACTOR_MEMOS", {})
        LogNormalPredictor(trim=True).prime(3_000)
        assert len(ppf_calls) == 1
        predictor = LogNormalPredictor()
        predictor._factors(np.arange(2, 3_001))
        predictor._factor(2_999)
        assert len(ppf_calls) == 1


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
