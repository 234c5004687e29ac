"""Tests for the Monte-Carlo rare-event threshold calibration."""

import math

import numpy as np
import pytest

from repro.core.rare_event import (
    RareEventTable,
    _gaussian_ar1,
    _run_lengths,
    default_rare_event_table,
    generate_rare_event_table,
    threshold_for_rho,
)


class TestRunLengths:
    def test_basic_runs(self):
        exceed = np.array([0, 1, 1, 0, 1, 0, 1, 1, 1], dtype=bool)
        assert sorted(_run_lengths(exceed)) == [1, 2, 3]

    def test_all_false(self):
        assert _run_lengths(np.zeros(10, dtype=bool)).size == 0

    def test_all_true(self):
        assert list(_run_lengths(np.ones(7, dtype=bool))) == [7]

    def test_empty(self):
        assert _run_lengths(np.array([], dtype=bool)).size == 0

    def test_boundary_runs(self):
        exceed = np.array([1, 0, 0, 1], dtype=bool)
        assert sorted(_run_lengths(exceed)) == [1, 1]


class TestGaussianAr1:
    def test_marginal_variance_is_unit(self):
        rng = np.random.default_rng(0)
        series = _gaussian_ar1(200_000, 0.7, rng)
        assert np.std(series) == pytest.approx(1.0, abs=0.02)

    def test_matches_the_recursion_bit_for_bit(self):
        for rho in (0.0, 0.3, 0.9):
            series = _gaussian_ar1(5_000, rho, np.random.default_rng(3))
            innovations = np.random.default_rng(3).standard_normal(5_000)
            scale = math.sqrt(1.0 - rho * rho)
            want = [float(innovations[0])]
            for value in innovations[1:].tolist():
                want.append(rho * want[-1] + value * scale)
            assert series.tolist() == want

    def test_lag1_autocorrelation_matches(self):
        rng = np.random.default_rng(1)
        for rho in (0.0, 0.4, 0.8):
            series = _gaussian_ar1(200_000, rho, rng)
            centered = series - series.mean()
            measured = np.dot(centered[:-1], centered[1:]) / np.dot(centered, centered)
            assert measured == pytest.approx(rho, abs=0.02)


class TestThresholds:
    def test_iid_threshold_is_three(self):
        # The paper's narrative: three consecutive misses on i.i.d. data.
        assert threshold_for_rho(0.0, series_length=100_000) == 3

    def test_threshold_monotone_in_autocorrelation(self):
        rng = np.random.default_rng(2)
        thresholds = [
            threshold_for_rho(rho, series_length=150_000, rng=rng)
            for rho in (0.0, 0.5, 0.9)
        ]
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] > thresholds[0]

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            threshold_for_rho(1.0)
        with pytest.raises(ValueError):
            threshold_for_rho(-0.1)


class TestTable:
    def test_default_table_is_cached_and_deterministic(self):
        a = default_rare_event_table()
        b = default_rare_event_table()
        assert a is b
        regenerated = generate_rare_event_table()
        assert regenerated.thresholds == a.thresholds
        assert a.thresholds == {
            0.0: 3, 0.1: 3, 0.2: 3, 0.3: 3, 0.4: 3,
            0.5: 4, 0.6: 4, 0.7: 5, 0.8: 6, 0.9: 10,
        }

    def test_lookup_floors_to_grid(self):
        table = RareEventTable(
            quantile=0.95, rare_fraction=0.05, thresholds={0.0: 3, 0.5: 4, 0.9: 8}
        )
        assert table.threshold_for(0.0) == 3
        assert table.threshold_for(0.49) == 3
        assert table.threshold_for(0.5) == 4
        assert table.threshold_for(0.7) == 4
        assert table.threshold_for(0.95) == 8  # clamps above grid
        assert table.threshold_for(-0.3) == 3  # clamps below grid

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            RareEventTable(quantile=0.95, rare_fraction=0.05, thresholds={})

    def test_generated_table_covers_grid(self):
        table = generate_rare_event_table(
            rho_grid=(0.0, 0.4, 0.8), series_length=50_000
        )
        assert set(table.thresholds) == {0.0, 0.4, 0.8}
        assert all(t >= 3 for t in table.thresholds.values())
