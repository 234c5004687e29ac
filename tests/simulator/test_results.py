"""Tests for replay result containers."""

import math

import numpy as np
import pytest

from repro.simulator.results import JobRecord, ReplayResult


def make_result(**kwargs):
    defaults = dict(
        trace_name="t", predictor_name="p", quantile=0.95, confidence=0.95
    )
    defaults.update(kwargs)
    return ReplayResult(**defaults)


class TestMetrics:
    def test_fraction_correct(self):
        result = make_result()
        for correct in [True, True, True, False]:
            result.record_outcome(0.5, correct)
        assert result.fraction_correct == 0.75
        assert result.n_evaluated == 4
        assert result.n_correct == 3

    def test_fraction_nan_when_empty(self):
        assert math.isnan(make_result().fraction_correct)

    def test_correct_flag_uses_quantile_threshold(self):
        result = make_result(quantile=0.75)
        for correct in [True, True, True, False]:
            result.record_outcome(0.1, correct)
        assert result.correct  # 0.75 >= 0.75

        result2 = make_result(quantile=0.95)
        for correct in [True, True, True, False]:
            result2.record_outcome(0.1, correct)
        assert not result2.correct

    def test_median_ratio_filters_infinities(self):
        result = make_result()
        result.record_outcome(0.5, True)
        result.record_outcome(math.inf, False)
        result.record_outcome(0.7, True)
        assert result.median_ratio == pytest.approx(0.6)

    def test_median_ratio_nan_when_all_infinite(self):
        result = make_result()
        result.record_outcome(math.inf, False)
        assert math.isnan(result.median_ratio)

    def test_median_ratio_matches_per_element_filter(self):
        # The finite mask must pick exactly the ratios a per-element
        # ``np.isfinite`` filter keeps, nan and -inf included.
        rng = np.random.default_rng(4)
        ratios = rng.lognormal(0.0, 1.0, 501).tolist()
        ratios[::7] = [math.inf] * len(ratios[::7])
        ratios[3::11] = [math.nan] * len(ratios[3::11])
        ratios[5] = -math.inf
        result = make_result(ratios=ratios)
        expected = float(np.median([r for r in ratios if np.isfinite(r)]))
        assert result.median_ratio == expected
        assert math.isnan(make_result(ratios=[math.nan, -math.inf]).median_ratio)
        assert math.isnan(make_result().median_ratio)

    def test_series_arrays(self):
        result = make_result()
        result.series_times.extend([1.0, 2.0])
        result.series_values.extend([10.0, 20.0])
        times, values = result.series
        assert isinstance(times, np.ndarray)
        assert list(values) == [10.0, 20.0]

    def test_repr_is_compact(self):
        result = make_result()
        result.record_outcome(0.5, True)
        text = repr(result)
        assert "t" in text and "n=1" in text


class TestJobRecord:
    def test_fields(self):
        record = JobRecord(
            submit_time=1.0, predicted=10.0, actual=5.0, correct=True, procs=8
        )
        assert record.procs == 8
        assert record.correct
