"""Batched-vs-reference replay engine identity.

The batched kernel's contract is *exactness*: per-job outcomes, skip
counts, change points, and the per-refit bound series must match the
per-event reference engine — the batching is a pure reorganization of the
same arithmetic, not an approximation.  The property test throws randomized
small traces at both engines (tied submit times, zero waits, short trim
lengths that force mid-segment fires, sliding windows, epoch/​training
variations); the deterministic tests pin the specific regimes the kernel
special-cases: change-point fire splitting, zero-wait drain ties, the
small-batch scalar path, and engine selection plumbing.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DowneyLogUniformPredictor,
    MaxObservedPredictor,
    MeanWaitPredictor,
    PointQuantilePredictor,
    WeibullPredictor,
)
from repro.core import BMBPPredictor, BoundKind, LogNormalPredictor
from repro.core.predictor import prefix_kernel
from repro.runtime import configure, reset_configuration
from repro.simulator.replay import ENGINE_ENV_VAR, ReplayConfig, replay
from repro.stats.order_stats import prefix_order_statistics


def _bank():
    """Predictors covering every kernel path: order-statistic and running-sum
    refits, trimming (short lengths so random traces actually fire),
    sliding windows, non-batch-aware overrides, a lower bound, and the
    detector-free methods the batched engine serves by prefix kernel."""
    return {
        "bmbp-trim": BMBPPredictor(trim=True, trim_length=4),
        "bmbp-window": BMBPPredictor(trim=False, max_history=16),
        "logn-trim": LogNormalPredictor(trim=True, trim_length=4),
        "logn-lower": LogNormalPredictor(
            quantile=0.05, kind=BoundKind.LOWER, trim=True, trim_length=4
        ),
        "logn-notrim": LogNormalPredictor(trim=False),
        "downey": DowneyLogUniformPredictor(),
        "weibull": WeibullPredictor(),
        "point": PointQuantilePredictor(),
        "point-notrim": PointQuantilePredictor(trim=False),
        "point-window": PointQuantilePredictor(trim=False, max_history=16),
        "max-observed": MaxObservedPredictor(),
        "mean-wait": MeanWaitPredictor(),
        "mean-wait-notrim": MeanWaitPredictor(trim=False),
    }


#: ``_bank()`` entries the batched engine must serve by prefix kernel: the
#: detector-free exact ones (``point`` and ``mean-wait`` trim by default).
_KERNEL_SERVED = {
    "logn-notrim", "downey", "point-notrim", "max-observed", "mean-wait-notrim",
}


def _make_trace(gaps, waits):
    from repro.workloads.trace import Trace

    submits = np.cumsum(np.asarray(gaps, dtype=float))
    return Trace.from_arrays(submits, np.asarray(waits, dtype=float), name="prop")


#: Methods held to a documented band instead of the exact tier.  Weibull's
#: streamed fit is path-dependent (a batch absorb resyncs it, per-item
#: observes stream it), so its bounds agree within the streaming band and
#: a job whose ratio sits that close to 1 may score differently.
_BANDED = {"weibull": 1e-2}


def _kernel_bank():
    """Only kernel-served predictors: the segment loop drives none."""
    return {name: pr for name, pr in _bank().items() if name in _KERNEL_SERVED}


def _assert_identical(trace, config, make_bank=_bank):
    banks = {"batched": make_bank(), "reference": make_bank()}
    served = {name for name, pr in banks["batched"].items() if prefix_kernel(pr)}
    assert served == _KERNEL_SERVED
    batched = replay(trace, banks["batched"], config, engine="batched")
    reference = replay(trace, banks["reference"], config, engine="reference")
    assert set(batched) == set(reference)
    for name in batched:
        rtol = _BANDED.get(name, 1e-9)
        # Both engines leave every predictor in the same state.
        pa, pb = banks["batched"][name], banks["reference"][name]
        assert len(pa.history) == len(pb.history), name
        assert pa.observations_since_refit == pb.observations_since_refit, name
        assert pa.trained == pb.trained, name
        qa, qb = pa.predict(), pb.predict()
        assert (qa is None) == (qb is None), name
        if qb is not None:
            np.testing.assert_allclose(qa, qb, rtol=rtol, err_msg=name)
        a, b = batched[name], reference[name]
        assert a.n_evaluated == b.n_evaluated, name
        if name not in _BANDED:
            assert a.n_correct == b.n_correct, name
        assert a.n_skipped == b.n_skipped, name
        assert a.change_points == b.change_points, name
        ra, rb = np.asarray(a.ratios), np.asarray(b.ratios)
        assert ra.shape == rb.shape, name
        finite = np.isfinite(rb)
        assert np.array_equal(np.isfinite(ra), finite), name
        np.testing.assert_allclose(ra[finite], rb[finite], rtol=rtol, err_msg=name)
        assert list(a.series_times) == list(b.series_times), name
        sa = np.asarray(a.series_values, dtype=float)
        sb = np.asarray(b.series_values, dtype=float)
        assert np.array_equal(np.isnan(sa), np.isnan(sb)), name
        ok = ~np.isnan(sb)
        np.testing.assert_allclose(sa[ok], sb[ok], rtol=rtol, err_msg=name)


# Coarse gap choices create tied submit times (gap 0), multiple jobs per
# epoch (small gaps), and empty epochs (900 > the 300 s default) — every
# segment shape the kernel distinguishes.
GAPS = st.sampled_from([0.0, 1.0, 30.0, 150.0, 301.0, 900.0])
# Zero waits are over-represented on purpose: they drain at their own
# submit instant and exercise the drain-order tie rule.
WAITS = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=5_000.0, allow_nan=False),
)
JOBS = st.lists(st.tuples(GAPS, WAITS), min_size=5, max_size=50)


class TestPrefixKernels:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(st.just(0.0), st.sampled_from([1.0, 7.0]),
                      st.floats(min_value=0.0, max_value=1e6)),
            min_size=1, max_size=60,
        ),
        data=st.data(),
    )
    def test_prefix_order_statistics_match_sorted_prefixes(self, values, data):
        # Zero and tied waits included; ranks jump around within [1, m].
        lengths = sorted(set(data.draw(st.lists(
            st.integers(min_value=1, max_value=len(values)), min_size=1))))
        ranks = [data.draw(st.integers(min_value=1, max_value=m)) for m in lengths]
        got = prefix_order_statistics(np.asarray(values), lengths, ranks)
        want = [sorted(values[:m])[k - 1] for m, k in zip(lengths, ranks)]
        assert got.tolist() == want

    @pytest.mark.parametrize("every", [1, 3, 17])
    def test_kernels_match_per_item_refits(self, every):
        # Refit after every ``every``-th wait, as a replay's boundaries do:
        # each kernel must reproduce the per-item feed's quotes exactly.
        rng = np.random.default_rng(8)
        waits = rng.lognormal(3.0, 1.5, 300)
        waits[::7] = 0.0
        waits[5:12] = 20.0
        lengths = np.arange(0, 301, every)
        for name in sorted(_KERNEL_SERVED):
            probe = _bank()[name]
            want, fed = [], 0
            for m in lengths:
                for wait in waits[fed:m].tolist():
                    probe.observe(wait)
                fed = m
                value = probe._compute_bound()
                want.append(np.nan if value is None else value)
            got = prefix_kernel(_bank()[name])(waits, lengths)
            assert np.array_equal(got, want, equal_nan=True), name

    def test_eligibility_is_a_class_capability(self):
        class Overridden(MeanWaitPredictor):
            def _compute_bound(self):
                return 1.0

        assert prefix_kernel(MeanWaitPredictor(trim=False)) is not None
        assert prefix_kernel(MeanWaitPredictor()) is None  # trims by default
        assert prefix_kernel(Overridden(trim=False)) is None
        assert prefix_kernel(
            MeanWaitPredictor(trim=False, refit_mode="recompute")
        ) is None
        assert prefix_kernel(MaxObservedPredictor(trim=True)) is None
        assert prefix_kernel(
            PointQuantilePredictor(trim=False, refit_mode="p2")
        ) is None
        used = MeanWaitPredictor(trim=False)
        used.observe(3.0)
        assert prefix_kernel(used) is None


class TestEngineIdentityProperty:
    @settings(max_examples=50, deadline=None)
    @given(
        jobs=JOBS,
        epoch=st.sampled_from([50.0, 300.0]),
        training=st.sampled_from([0.0, 0.1, 0.3]),
    )
    def test_random_traces(self, jobs, epoch, training):
        trace = _make_trace([g for g, _ in jobs], [w for _, w in jobs])
        config = ReplayConfig(
            epoch=epoch, training_fraction=training, record_series=True
        )
        _assert_identical(trace, config)

    @settings(max_examples=30, deadline=None)
    @given(jobs=JOBS, training=st.sampled_from([0.0, 0.3]))
    def test_kernel_only_bank(self, jobs, training):
        # With no predictor left in the loop, the refit schedule and the
        # inert-run shortcut must still follow the drains alone.
        trace = _make_trace([g for g, _ in jobs], [w for _, w in jobs])
        config = ReplayConfig(training_fraction=training, record_series=True)
        _assert_identical(trace, config, make_bank=_kernel_bank)

    @settings(max_examples=15, deadline=None)
    @given(jobs=JOBS)
    def test_epoch_zero_uses_reference_semantics(self, jobs):
        # epoch=0 has no segments to batch; the batched entry point must
        # fall back to the reference loop and match it trivially.
        trace = _make_trace([g for g, _ in jobs], [w for _, w in jobs])
        _assert_identical(trace, ReplayConfig(epoch=0.0, record_series=True))


def _mode_bank(refit_mode):
    """Every predictor whose two refit modes compute the *same* answer.

    The short trim length and sliding window force the maintained sorted
    views through evictions and change-point trims, not just appends.
    Weibull (streamed sufficient statistics with a tolerance-gated
    acceptance) and bootstrap (two-order-statistic draw vs materialized
    resamples) run genuinely different algorithms per mode, so they are
    covered by the statistical-equivalence tests below instead.
    """
    return {
        "bmbp-trim": BMBPPredictor(trim=True, trim_length=4, refit_mode=refit_mode),
        "bmbp-window": BMBPPredictor(
            trim=False, max_history=16, refit_mode=refit_mode
        ),
        "point": PointQuantilePredictor(refit_mode=refit_mode),
        "mean-wait": MeanWaitPredictor(refit_mode=refit_mode),
    }


#: Methods whose incremental refit is *bit-identical* to recompute (the
#: order-statistic exactness tier); the rest agree to float roundoff.
_EXACT_MODE_METHODS = {"bmbp-trim", "bmbp-window", "point"}


class TestRefitModeIdentity:
    """``refit_mode="incremental"`` (maintained views, rank subscriptions,
    log caches, running sums) against ``"recompute"`` (the legacy
    sort-per-refit paths): same bounds, same outcomes, same change points.
    Order-statistic methods must match bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(
        jobs=JOBS,
        epoch=st.sampled_from([50.0, 300.0]),
        engine=st.sampled_from(["batched", "reference"]),
    )
    def test_incremental_matches_recompute(self, jobs, epoch, engine):
        trace = _make_trace([g for g, _ in jobs], [w for _, w in jobs])
        config = ReplayConfig(epoch=epoch, record_series=True)
        incremental = replay(trace, _mode_bank("incremental"), config, engine=engine)
        recompute = replay(trace, _mode_bank("recompute"), config, engine=engine)
        assert set(incremental) == set(recompute)
        for name in incremental:
            a, b = incremental[name], recompute[name]
            assert a.n_evaluated == b.n_evaluated, name
            assert a.n_correct == b.n_correct, name
            assert a.n_skipped == b.n_skipped, name
            assert a.change_points == b.change_points, name
            sa = np.asarray(a.series_values, dtype=float)
            sb = np.asarray(b.series_values, dtype=float)
            assert np.array_equal(np.isnan(sa), np.isnan(sb)), name
            ok = ~np.isnan(sb)
            if name in _EXACT_MODE_METHODS:
                assert np.array_equal(sa[ok], sb[ok]), name
            else:
                np.testing.assert_allclose(sa[ok], sb[ok], rtol=1e-9, err_msg=name)

    def test_modes_identical_through_fire_heavy_replay(self):
        # The fire-splitting path re-quotes mid-segment right after a trim:
        # the maintained views must survive trim → rebuild → refit cycles
        # bit-identically, which random small traces rarely stress.
        rng = np.random.default_rng(3)
        calm = rng.lognormal(2.0, 0.3, 120)
        burst = rng.lognormal(4.5, 0.2, 40)
        waits = np.concatenate([calm, burst, calm[:40]])
        trace = _make_trace(np.full(waits.size, 30.0), waits)
        config = ReplayConfig(record_series=True)
        incremental = replay(trace, _mode_bank("incremental"), config)
        recompute = replay(trace, _mode_bank("recompute"), config)
        assert incremental["bmbp-trim"].change_points > 0
        for name in _EXACT_MODE_METHODS:
            sa = np.asarray(incremental[name].series_values, dtype=float)
            sb = np.asarray(recompute[name].series_values, dtype=float)
            assert np.array_equal(np.isnan(sa), np.isnan(sb)), name
            ok = ~np.isnan(sb)
            assert np.array_equal(sa[ok], sb[ok]), name


class TestModeEquivalenceStatistical:
    """Weibull and bootstrap run different *algorithms* per refit mode;
    their contract is statistical agreement, not value identity."""

    def test_weibull_streamed_fit_tracks_the_full_fit(self):
        # The streamed sufficient statistics accept the standing shape only
        # while the implied Newton step stays under 2e-3 of it, so every
        # quoted bound must sit within a small relative band of the
        # recompute (full-fit-every-refit) bound over a long replay.
        from repro.baselines import WeibullPredictor

        rng = np.random.default_rng(11)
        waits = rng.lognormal(3.0, 0.8, 3000)
        trace = _make_trace(np.full(waits.size, 400.0), waits)
        config = ReplayConfig(record_series=True)
        out = {}
        for mode in ("incremental", "recompute"):
            bank = {"weibull": WeibullPredictor(max_history=500, refit_mode=mode)}
            out[mode] = replay(trace, bank, config, engine="batched")["weibull"]
        sa = np.asarray(out["incremental"].series_values, dtype=float)
        sb = np.asarray(out["recompute"].series_values, dtype=float)
        assert np.array_equal(np.isnan(sa), np.isnan(sb))
        ok = ~np.isnan(sb)
        assert ok.sum() > 1000  # the stream actually ran, at scale
        rel = np.abs(sa[ok] - sb[ok]) / sb[ok]
        assert rel.max() < 1e-2
        assert rel.mean() < 2e-3

    def test_bootstrap_two_draw_matches_materialized_distribution(self):
        # Same frozen window, many refits per mode: the two-order-statistic
        # draw must reproduce the materialized bootstrap's bound
        # *distribution* (same mean and spread), not its realizations.
        from repro.baselines import BootstrapQuantilePredictor

        rng = np.random.default_rng(29)
        window = rng.lognormal(3.0, 1.0, 600)
        samples = {}
        for mode, seed in (("incremental", 1), ("recompute", 2)):
            predictor = BootstrapQuantilePredictor(
                trim=False, seed=seed, refit_mode=mode
            )
            for wait in window:
                predictor.observe(float(wait))
            draws = []
            for _ in range(800):
                draws.append(predictor._compute_bound())
            samples[mode] = np.asarray(draws, dtype=float)
        a, b = samples["incremental"], samples["recompute"]
        assert abs(a.mean() - b.mean()) / b.mean() < 0.02
        assert abs(a.std() - b.std()) / b.mean() < 0.02
        for q in (0.1, 0.5, 0.9):
            qa, qb = np.quantile(a, q), np.quantile(b, q)
            assert abs(qa - qb) / qb < 0.03, q


class TestEngineIdentityDeterministic:
    def test_fire_splitting_mid_segment(self):
        # A calm prefix, then a burst of huge waits arriving within one
        # epoch: the trimming predictors must fire mid-segment, and the
        # post-trim quote must be restamped onto the rest of the segment
        # exactly as the reference engine would.
        rng = np.random.default_rng(3)
        calm = rng.lognormal(2.0, 0.3, 120)
        burst = rng.lognormal(4.5, 0.2, 40)
        waits = np.concatenate([calm, burst, calm[:40]])
        trace = _make_trace(np.full(waits.size, 30.0), waits)
        config = ReplayConfig(record_series=True)
        result = replay(
            trace, {"p": BMBPPredictor(trim=True, trim_length=4)},
            config, engine="batched",
        )["p"]
        assert result.change_points > 0  # the split path actually ran
        _assert_identical(trace, config)

    def test_all_zero_waits_with_tied_submits(self):
        # Every job starts the instant it is submitted, at timestamps that
        # collide: the worst case for the drain-order tie rule.
        trace = _make_trace([0.0, 0.0, 300.5, 0.0, 0.0, 0.0, 300.5, 0.0] * 4,
                            [0.0] * 32)
        _assert_identical(trace, ReplayConfig(record_series=True))

    def test_kernel_only_refit_after_intra_segment_drains(self):
        # Jobs drained inside the first segment leave a refit pending at
        # the next boundary even though nothing starts before it; the
        # kernel-served predictors must end having refit there.
        trace = _make_trace([0.0, 10.0, 10.0, 880.0], [0.0, 5.0, 5000.0, 5000.0])
        _assert_identical(trace, ReplayConfig(), make_bank=_kernel_bank)

    def test_zero_waits_then_outlier(self):
        # All-zero history drives the Weibull shape up until a later
        # wait's streamed term overflows; both engines must resync.
        gaps = [0.0] * 8 + [301.0] * 3 + [900.0]
        waits = [0.0] * 7 + [1801.0] + [0.0] * 4
        _assert_identical(_make_trace(gaps, waits), ReplayConfig(epoch=50.0))

    def test_single_job_segments_small_batch_path(self):
        # One job per epoch: exercises the scalar small-batch feed.
        rng = np.random.default_rng(5)
        waits = rng.lognormal(3.0, 1.0, 40)
        trace = _make_trace(np.full(40, 310.0), waits)
        _assert_identical(trace, ReplayConfig(record_series=True))


class TestEngineSelection:
    def test_env_var_escape_hatch(self, monkeypatch, small_trace):
        monkeypatch.setenv(ENGINE_ENV_VAR, "reference")
        via_env = replay(small_trace, _bank(), ReplayConfig())
        explicit = replay(small_trace, _bank(), ReplayConfig(), engine="reference")
        for name in via_env:
            assert via_env[name].n_correct == explicit[name].n_correct

    def test_unknown_engine_rejected(self, small_trace):
        with pytest.raises(ValueError, match="replay engine"):
            replay(small_trace, _bank(), ReplayConfig(), engine="fancy")

    def test_configure_sets_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(ENGINE_ENV_VAR, raising=False)
        import os

        configure(engine="reference")
        try:
            assert os.environ[ENGINE_ENV_VAR] == "reference"
        finally:
            reset_configuration()
        assert ENGINE_ENV_VAR not in os.environ

    def test_configure_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="replay engine"):
            configure(engine="fancy")
