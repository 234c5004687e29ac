"""Tests for the Section 5.1 trace-replay simulator."""

import math
import warnings

import numpy as np
import pytest

from repro.core.bmbp import BMBPPredictor
from repro.core.predictor import BoundKind, QuantilePredictor
from repro.simulator.replay import ReplayConfig, replay, replay_single
from repro.workloads.trace import Job, Trace

from tests.conftest import make_trace


class FixedBoundPredictor(QuantilePredictor):
    """Always quotes a fixed bound (the batched engine's loop drives it)."""

    name = "constant"

    def __init__(self, bound, **kwargs):
        kwargs.setdefault("trim", False)
        super().__init__(**kwargs)
        self.bound = bound

    def _compute_bound(self):
        return self.bound


class ConstantPredictor(FixedBoundPredictor):
    """A fixed bound that records what it observed and when.

    Its ``observe`` override is not registered as batch-aware, so every
    replay of a bank holding it runs the per-event reference engine.
    """

    def __init__(self, bound, **kwargs):
        super().__init__(bound, **kwargs)
        self.observed = []

    def observe(self, wait, predicted=None):
        self.observed.append((wait, predicted))
        super().observe(wait, predicted=predicted)


class TestBookkeeping:
    def test_counts_add_up(self, small_trace):
        result = replay_single(small_trace, ConstantPredictor(1e9))
        n_train = math.ceil(0.1 * len(small_trace))
        assert result.n_evaluated + result.n_skipped == len(small_trace) - n_train

    def test_training_jobs_are_not_scored(self, small_trace):
        config = ReplayConfig(training_fraction=0.5)
        result = replay_single(small_trace, ConstantPredictor(1e9), config)
        assert result.n_evaluated == len(small_trace) - math.ceil(0.5 * len(small_trace))

    def test_zero_training(self, small_trace):
        config = ReplayConfig(training_fraction=0.0)
        result = replay_single(small_trace, ConstantPredictor(1e9), config)
        assert result.n_evaluated == len(small_trace)

    def test_empty_trace(self):
        result = replay_single(Trace(jobs=[]), ConstantPredictor(1.0))
        assert result.n_evaluated == 0
        assert math.isnan(result.fraction_correct)

    def test_none_predictions_are_skipped(self, small_trace):
        result = replay_single(small_trace, ConstantPredictor(None))
        assert result.n_skipped > 0
        assert result.n_evaluated == 0


class TestScoring:
    def test_all_correct_with_huge_bound(self, small_trace):
        result = replay_single(small_trace, ConstantPredictor(1e12))
        assert result.fraction_correct == 1.0

    def test_all_wrong_with_zero_bound(self):
        trace = make_trace([5.0] * 100)
        result = replay_single(trace, ConstantPredictor(0.0))
        assert result.fraction_correct == 0.0
        # actual > 0, predicted == 0 -> infinite ratio, filtered from median.
        assert math.isnan(result.median_ratio)

    def test_zero_actual_zero_bound_is_correct(self):
        trace = make_trace([0.0] * 100)
        result = replay_single(trace, ConstantPredictor(0.0))
        assert result.fraction_correct == 1.0
        assert result.median_ratio == 1.0

    def test_boundary_equality_counts_as_correct(self):
        trace = make_trace([7.0] * 100)
        result = replay_single(trace, ConstantPredictor(7.0))
        assert result.fraction_correct == 1.0

    def test_lower_bound_scoring_flips(self):
        trace = make_trace([10.0] * 100)
        low = ConstantPredictor(5.0, kind=BoundKind.LOWER)
        result = replay_single(trace, low)
        assert result.fraction_correct == 1.0  # actual 10 >= bound 5
        high = ConstantPredictor(20.0, kind=BoundKind.LOWER)
        result = replay_single(make_trace([10.0] * 100), high)
        assert result.fraction_correct == 0.0

    def test_subnormal_bound_scores_an_infinite_ratio_quietly(self):
        # 1.0 / 1e-320 overflows: the ratio is inf in both engines, and
        # the batched engine's vectorized division warns about nothing.
        trace = make_trace([1.0] * 100)
        results = {}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for engine in ("batched", "reference"):
                results[engine] = replay_single(
                    trace, FixedBoundPredictor(1e-320), engine=engine
                )
        batched, reference = results["batched"], results["reference"]
        assert batched.ratios == reference.ratios
        assert batched.ratios and all(r == math.inf for r in batched.ratios)
        assert batched.n_correct == reference.n_correct == 0

    def test_median_ratio(self):
        trace = make_trace([10.0] * 100)
        result = replay_single(trace, ConstantPredictor(40.0))
        assert result.median_ratio == pytest.approx(0.25)

    def test_record_jobs(self, small_trace):
        config = ReplayConfig(record_jobs=True)
        result = replay_single(small_trace, ConstantPredictor(1e9), config)
        assert len(result.jobs) == result.n_evaluated
        assert all(record.correct for record in result.jobs)


class TestVisibility:
    """The predictor must never see a wait before the job starts."""

    def test_pending_waits_are_hidden(self):
        # Job 0 waits 1e9 seconds; it must never enter history during the
        # replay because it never starts within the trace.
        jobs = [Job(submit_time=0.0, wait=1e9)]
        jobs += [Job(submit_time=60.0 * (i + 1), wait=1.0) for i in range(100)]
        predictor = ConstantPredictor(10.0)
        replay_single(Trace(jobs=jobs), predictor)
        observed_waits = [wait for wait, _ in predictor.observed]
        assert 1e9 not in observed_waits

    def test_waits_become_visible_at_start_time(self):
        # The 150 s wait submitted at t=0 becomes visible (start t=150)
        # before the job submitted at t=200 is predicted; the t=200 job's
        # own wait is never observed — nothing is submitted after it.
        jobs = [
            Job(submit_time=0.0, wait=150.0),
            Job(submit_time=100.0, wait=1.0),  # starts at 101
            Job(submit_time=200.0, wait=1.0),
        ]
        predictor = ConstantPredictor(1e9)
        replay_single(Trace(jobs=jobs), predictor, ReplayConfig(training_fraction=0.0))
        observed_waits = [wait for wait, _ in predictor.observed]
        assert observed_waits == [1.0, 150.0]

    def test_observation_order_is_start_time_order(self, rng):
        waits = rng.lognormal(3, 1, 300)
        trace = make_trace(waits, gap=10.0)
        predictor = ConstantPredictor(1e9)
        replay_single(trace, predictor)
        starts_in_observation_order = []
        by_wait = {}
        for job in trace:
            by_wait.setdefault(job.wait, []).append(job.start_time)
        for wait, _ in predictor.observed:
            starts_in_observation_order.append(by_wait[wait].pop(0))
        assert starts_in_observation_order == sorted(starts_in_observation_order)


class TestEpochSemantics:
    def test_bound_changes_only_at_epoch_boundaries(self):
        """With a huge epoch, the post-training bound never updates."""

        class CountingPredictor(ConstantPredictor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.refits = 0

            def _compute_bound(self):
                self.refits += 1
                return self.bound

        trace = make_trace([1.0] * 200, gap=10.0)  # spans 2000 s
        predictor = CountingPredictor(100.0)
        replay_single(trace, predictor, ReplayConfig(epoch=1e9))
        # One refit at the initial boundary, one at finish_training.
        assert predictor.refits <= 3

        fine = CountingPredictor(100.0)
        replay_single(make_trace([1.0] * 200, gap=10.0), fine, ReplayConfig(epoch=10.0))
        assert fine.refits > 50

    def test_epoch_zero_refits_every_event(self):
        class CountingPredictor(ConstantPredictor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.refits = 0

            def _compute_bound(self):
                self.refits += 1
                return self.bound

        trace = make_trace([1.0] * 100, gap=10.0)
        predictor = CountingPredictor(100.0)
        replay_single(trace, predictor, ReplayConfig(epoch=0.0))
        assert predictor.refits >= 99


class TestMultiPredictor:
    def test_identical_streams(self, small_trace):
        """All predictors see the same events; results are per-predictor."""
        results = replay(
            small_trace,
            {"wide": ConstantPredictor(1e12), "zero": ConstantPredictor(0.0)},
        )
        assert results["wide"].fraction_correct == 1.0
        assert results["zero"].fraction_correct < 1.0
        assert results["wide"].n_evaluated == results["zero"].n_evaluated

    def test_real_predictor_integration(self, rng):
        waits = rng.lognormal(4, 1, 1500)
        trace = make_trace(waits, gap=120.0)
        result = replay_single(trace, BMBPPredictor())
        assert result.fraction_correct >= 0.94
        assert result.miss_threshold is not None


class TestUnregisteredObserve:
    def test_logging_trimming_predictor_matches_the_reference(self, rng):
        """A trimming bank member with a logging ``observe`` override sees
        the per-event feed, change points included, under the default
        engine exactly as under the reference one."""
        waits = rng.lognormal(mean=3.0, sigma=1.0, size=1500)
        trace = make_trace(waits, gap=5.0)  # ~60 jobs per 300 s segment
        bound = float(np.median(waits))
        config = ReplayConfig(record_series=True)
        runs = {}
        for engine in (None, "reference"):
            bank = {
                "logged": ConstantPredictor(bound, trim=True),
                "bmbp": BMBPPredictor(),
            }
            runs[engine] = (bank, replay(trace, bank, config, engine=engine))
        (bank, default), (ref_bank, reference) = runs[None], runs["reference"]
        assert bank["logged"].observed == ref_bank["logged"].observed
        assert default["logged"].change_points > 0
        for name in bank:
            got, want = default[name], reference[name]
            assert got.ratios == want.ratios
            assert (got.n_correct, got.n_skipped) == (want.n_correct, want.n_skipped)
            assert got.change_points == want.change_points
            assert got.series_values == want.series_values


class TestSeries:
    def test_series_recording_with_window(self, rng):
        waits = rng.lognormal(3, 1, 500)
        trace = make_trace(waits, gap=100.0)  # spans 50_000 s
        config = ReplayConfig(record_series=True, series_window=(10_000.0, 20_000.0))
        result = replay_single(trace, BMBPPredictor(), config)
        times, values = result.series
        assert times.size > 0
        assert np.all((times >= 10_000.0) & (times < 20_000.0))
        assert np.all(values > 0)

    def test_no_series_by_default(self, small_trace):
        result = replay_single(small_trace, ConstantPredictor(1.0))
        times, values = result.series
        assert times.size == 0


class TestConfigValidation:
    def test_bad_epoch(self):
        with pytest.raises(ValueError):
            ReplayConfig(epoch=-1.0)

    def test_bad_training_fraction(self):
        with pytest.raises(ValueError):
            ReplayConfig(training_fraction=1.0)
        with pytest.raises(ValueError):
            ReplayConfig(training_fraction=-0.1)
