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

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    BootstrapQuantilePredictor,
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


def _bank():
    """Predictors covering every kernel path: order-statistic and running-sum
    refits, trimming (short lengths so random traces actually fire),
    sliding windows, a lower bound, seeded draws, and the methods the
    batched engine serves by prefix kernel, with and without a detector."""
    return {
        "bmbp-trim": BMBPPredictor(trim=True, trim_length=4),
        "bmbp-notrim": BMBPPredictor(trim=False),
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
        **_bootstrap_bank(),
    }


def _bootstrap_bank():
    """The bootstrap at its defaults and in every shape its kernel
    special-cases: a trim that leaves fewer than the 30 waits a refit
    draws for, no detector, a mirror shorter than the history, a lower
    bound, and a C-quantile that needs no second draw (200 * 0.95 is
    exactly 190)."""
    return {
        "bootstrap": BootstrapQuantilePredictor(),
        "bootstrap-trim4": BootstrapQuantilePredictor(trim_length=4),
        "bootstrap-notrim": BootstrapQuantilePredictor(trim=False),
        "bootstrap-window": BootstrapQuantilePredictor(max_history=40),
        "bootstrap-lower": BootstrapQuantilePredictor(
            quantile=0.05, kind=BoundKind.LOWER, trim_length=4
        ),
        "bootstrap-one-draw": BootstrapQuantilePredictor(
            n_resamples=201, trim_length=4
        ),
    }


#: ``_bank()`` entries the batched engine must serve by prefix kernel:
#: every exact one, trimming or not, except the sliding windows and
#: weibull (whose streamed fit has no kernel).
_KERNEL_SERVED = set(_bank()) - {"bmbp-window", "point-window", "weibull"}


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


def _paper_bank():
    """The headline bank's four trimming methods, at their defaults (the
    binomial trim length, 59 for .95/.95) — all kernel-served."""
    return {
        "bmbp": BMBPPredictor(),
        "logn-trim": LogNormalPredictor(trim=True),
        "mean-wait": MeanWaitPredictor(),
        "point-quantile": PointQuantilePredictor(),
    }


_replay_module = importlib.import_module("repro.simulator.replay")


def _assert_identical(trace, config, make_bank=_bank, served=_KERNEL_SERVED):
    banks = {"batched": make_bank(), "reference": make_bank()}
    kernels = {name for name, pr in banks["batched"].items() if prefix_kernel(pr)}
    assert kernels == served & set(banks["batched"])
    batched = replay(trace, banks["batched"], config, engine="batched")
    reference = replay(trace, banks["reference"], config, engine="reference")
    assert set(batched) == set(reference)
    for name in batched:
        # A prefix kernel repeats the per-item feed's arithmetic, so its
        # quotes, and the ratios scored against them, are bit-identical.
        rtol = 0.0 if name in kernels else _BANDED.get(name, 1e-9)
        # Both engines leave every predictor in the same state.
        pa, pb = banks["batched"][name], banks["reference"][name]
        assert len(pa.history) == len(pb.history), name
        assert pa.observations_since_refit == pb.observations_since_refit, name
        assert pa.trained == pb.trained, name
        assert pa.miss_threshold == pb.miss_threshold, name
        if pb.detector is not None:
            assert pa.detector.current_run == pb.detector.current_run, name
        if hasattr(pb, "_rng"):
            # A seeded method's stream ends where the per-event refits
            # left it, so its next draw is the same too.
            assert pa._rng.bit_generator.state == pb._rng.bit_generator.state, name
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

    @pytest.mark.parametrize("window", [1, 2, 3, 59])
    def test_kernels_restart_from_a_trimmed_window(self, window):
        # After a fire the window is rebuilt in one pass
        # (``_on_history_trimmed``, the same rebuild ``preload_history``
        # does) and later waits are fed one at a time: a kernel told the
        # window size must reproduce those running sums exactly.
        rng = np.random.default_rng(12)
        waits = rng.lognormal(3.0, 1.5, 200)
        waits[::7] = 0.0
        # 1 + 2^-53 + 2^-53 + ... is 1 added left to right but not
        # pairwise: the window's sum must be rebuilt the trim's way.
        waits[0] = 1.0
        waits[1:59] = 2.0 ** -53
        lengths = np.arange(window, 201, 3)
        for name in sorted(_KERNEL_SERVED):
            probe = _bank()[name]
            probe.preload_history(waits[:window])
            want, fed = [], window
            for m in lengths:
                for wait in waits[fed:m].tolist():
                    probe.observe(wait)
                fed = m
                value = probe._compute_bound()
                want.append(np.nan if value is None else value)
            got = prefix_kernel(_bank()[name])(waits, lengths, window)
            assert np.array_equal(got, want, equal_nan=True), name

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        window=st.sampled_from([0, 0, 1, 3, 40]),
        steps=st.lists(st.sampled_from([0, 1, 1, 2, 3, 5, 17]), min_size=1,
                       max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=6),
    )
    def test_split_calls_sharing_a_carry_match_one_call(
        self, seed, window, steps, cuts
    ):
        # A replay quotes a retained window's refits chunk by chunk, each
        # refit once: every call continues from the ``carry`` the one
        # before left and from the ordinal of the quotes already taken.
        # Step 0 repeats a length (the double refit at the training
        # prefix).
        lengths = window + np.cumsum(steps)
        rng = np.random.default_rng(seed)
        waits = rng.lognormal(3.0, 1.5, int(lengths[-1]))
        waits[::5] = 0.0
        bounds = sorted({0, lengths.size, *(c for c in cuts if c < lengths.size)})
        for name in sorted(_KERNEL_SERVED):
            want = prefix_kernel(_bank()[name])(waits, lengths, window)
            kernel = prefix_kernel(_bank()[name])
            carry, ordinal, pieces = {}, 0, []
            for lo, hi in zip(bounds, bounds[1:]):
                piece = lengths[lo:hi]
                got = kernel(waits[:piece[-1]], piece, window, None, ordinal, carry)
                ordinal += int(np.count_nonzero(~np.isnan(got)))
                pieces.append(got)
            assert np.array_equal(np.concatenate(pieces), want, equal_nan=True), name

    def test_eligibility_is_a_class_capability(self):
        class Overridden(MeanWaitPredictor):
            def _compute_bound(self):
                return 1.0

        assert prefix_kernel(MeanWaitPredictor(trim=False)) is not None
        # A change-point detector no longer excludes a predictor.
        assert prefix_kernel(MeanWaitPredictor()) is not None
        assert prefix_kernel(MaxObservedPredictor(trim=True)) is not None
        assert prefix_kernel(BMBPPredictor()) is not None
        assert prefix_kernel(Overridden(trim=False)) is None
        assert prefix_kernel(
            MeanWaitPredictor(trim=False, refit_mode="recompute")
        ) is None
        assert prefix_kernel(
            PointQuantilePredictor(trim=False, refit_mode="p2")
        ) is None
        assert prefix_kernel(BMBPPredictor(max_history=16)) is None
        # The bootstrap's draws come from a tape; only its mirror is
        # bounded, not its history.
        assert prefix_kernel(BootstrapQuantilePredictor()) is not None
        assert prefix_kernel(
            BootstrapQuantilePredictor(refit_mode="recompute")
        ) is None
        # No kernel: a path-dependent streamed fit.
        assert prefix_kernel(WeibullPredictor()) is None
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
    @given(
        jobs=JOBS,
        training=st.sampled_from([0.0, 0.1]),
        min_chunk=st.integers(min_value=1, max_value=4),
    )
    def test_random_traces_in_tiny_chunks(self, jobs, training, min_chunk):
        # Chunk edges everywhere: the trimming kernels' fire scan must not
        # depend on where its chunks happen to end.
        trace = _make_trace([g for g, _ in jobs], [w for _, w in jobs])
        config = ReplayConfig(training_fraction=training, record_series=True)
        with mock.patch.object(_replay_module, "_MIN_CHUNK", min_chunk):
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
        # The headline trimming methods, at the default trim length, fire
        # mid-segment here too; the kernel driver must requote the same
        # jobs the loop's fire split did.
        reference = replay(trace, _paper_bank(), config, engine="reference")
        assert all(r.change_points > 0 for r in reference.values())
        _assert_identical(trace, config, _paper_bank, set(_paper_bank()))

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


def _ramp_trace():
    """A calm training prefix, then waits that keep growing: every scored
    drain misses every method's bound, so each fires once per threshold
    misses — far closer together than the 59-wait trim length."""
    rng = np.random.default_rng(21)
    calm = rng.lognormal(3.0, 0.4, 60)
    ramp = 200.0 * 1.02 ** np.arange(240)
    waits = np.concatenate([calm, ramp])
    return _make_trace(np.full(waits.size, 310.0), waits)


class TestChangePointKernels:
    """The trimming kernels' fire scan (``_kernel_walk``) on traces built
    to fire where the driver has special cases."""

    def test_fires_straddling_chunk_edges(self):
        # Tiny first chunks put chunk edges inside miss runs: a run carried
        # across an edge must fire where the per-event detector does.
        calls = []
        real = _replay_module.first_fire_index

        def spy(miss, carry, threshold):
            fired = real(miss, carry, threshold)
            calls.append((carry, fired))
            return fired

        trace = _ramp_trace()
        for min_chunk in range(1, 9):
            config = ReplayConfig(training_fraction=0.0, record_series=True)
            with mock.patch.object(_replay_module, "_MIN_CHUNK", min_chunk), \
                    mock.patch.object(_replay_module, "first_fire_index", spy):
                _assert_identical(trace, config, _paper_bank, set(_paper_bank()))
        # Some fire completed a run begun in the previous chunk.
        assert any(carry > 0 and fired is not None for carry, fired in calls)

    @staticmethod
    def _quoted_lengths(trace, config):
        """Refits each kernel quotes in a batched replay of ``_paper_bank``,
        and the change points the reference replay finds."""
        quoted = {}
        real = _replay_module.prefix_kernel

        def spy(predictor):
            kernel = real(predictor)
            if kernel is None:
                return None

            def counted(waits, lengths, *args):
                quoted[predictor.name] = quoted.get(predictor.name, 0) + lengths.size
                return kernel(waits, lengths, *args)

            return counted

        with mock.patch.object(_replay_module, "prefix_kernel", spy):
            replay(trace, _paper_bank(), config, engine="batched")
        reference = replay(trace, _paper_bank(), config, engine="reference")
        return quoted, {name: r.change_points for name, r in reference.items()}

    def test_each_refit_is_quoted_once(self):
        # Without a fire every chunk quotes only its own refits: the
        # lengths handed to a kernel add up to the replay's refit count.
        # Each wait is shorter than every earlier one, so nothing misses,
        # and starts come less than an epoch apart, so every refit sees
        # new waits; BMBP quotes from the end of training on, so no
        # boundary refits an unchanged window because it holds no quote.
        waits = 100.0 * 0.99 ** np.arange(400)
        trace = _make_trace(np.r_[0.0, np.full(waits.size - 1, 299.0)], waits)
        config = ReplayConfig(training_fraction=0.2, record_series=True)
        refits = {}
        bank = _paper_bank()
        for name, predictor in bank.items():
            def count(real=predictor._compute_bound, name=name):
                refits[name] = refits.get(name, 0) + 1
                return real()

            predictor._compute_bound = count
        replay(trace, bank, config, engine="reference")
        quoted, fires = self._quoted_lengths(trace, config)
        assert set(fires.values()) == {0}
        assert quoted == refits

    def test_fire_heavy_replay_quotes_each_refit_once_per_window(self):
        # Six level shifts, three of them upward: every method fires at
        # each, mean-wait all along.  Only a chunk's lookahead past a fire
        # is quoted twice.  When every chunk requoted its window's refits
        # these counts were 1862, 1452, 4878 and 2375.
        rng = np.random.default_rng(23)
        waits = np.concatenate([
            rng.lognormal(level, 0.3, 150)
            for level in (2.0, 4.0, 2.5, 4.5, 3.0, 5.0)
        ])
        trace = _make_trace(np.full(waits.size, 310.0), waits)
        quoted, fires = self._quoted_lengths(trace, ReplayConfig())
        assert fires == {
            "bmbp": 4, "logn-trim": 4, "mean-wait": 68, "point-quantile": 6,
        }
        assert quoted == {
            "bmbp": 1501, "logn-trim": 1202, "mean-wait": 4751,
            "point-quantile": 1823,
        }

    def test_back_to_back_fires_closer_than_trim_length(self):
        trace = _ramp_trace()
        config = ReplayConfig(record_series=True)
        reference = replay(trace, _paper_bank(), config, engine="reference")
        for name in ("bmbp", "mean-wait", "point-quantile"):
            # Six or more fires among the 240 ramp drains: by pigeonhole
            # two of them are fewer than 59 drains apart.
            assert reference[name].change_points >= 6, name
        _assert_identical(trace, config, _paper_bank, set(_paper_bank()))

    def test_fire_inside_transition_segment(self):
        # One 10^6 s segment holds the whole trace, so the training cutoff,
        # the finish_training quote and the misses that follow all fall
        # in the transition segment.
        rng = np.random.default_rng(6)
        waits = np.concatenate([rng.lognormal(1.0, 0.3, 150), np.full(150, 40.0)])
        trace = _make_trace(np.ones(300), waits)
        config = ReplayConfig(epoch=1e6, training_fraction=0.5, record_series=True)
        reference = replay(trace, _paper_bank(), config, engine="reference")
        assert all(r.change_points > 0 for r in reference.values())
        _assert_identical(trace, config, _paper_bank, set(_paper_bank()))
        _assert_identical(trace, config)

    def test_fire_inside_boundary_drain(self):
        # Every third epoch submits ten jobs at once whose long waits end
        # after the segment's last submit but before the next boundary, so
        # their misses drain (and fire) in that boundary's drain.
        rng = np.random.default_rng(7)
        gaps, waits = [], []
        for epoch in range(120):
            if epoch % 3 == 2 and epoch > 30:
                gaps += [300.0] + [0.5] * 9
                waits += (250.0 + rng.uniform(0.0, 10.0, 10)).tolist()
            else:
                gaps.append(300.0)
                waits.append(float(rng.lognormal(2.0, 0.3)))
        trace = _make_trace(gaps, waits)
        config = ReplayConfig(record_series=True)
        reference = replay(trace, _paper_bank(), config, engine="reference")
        assert all(r.change_points > 0 for r in reference.values())
        _assert_identical(trace, config, _paper_bank, set(_paper_bank()))
        _assert_identical(trace, config)

    @pytest.mark.parametrize("case", [
        "empty", "short", "all-equal", "all-zero", "outlier",
    ])
    def test_degenerate_inputs(self, case):
        rng = np.random.default_rng(9)
        waits = {
            "empty": np.empty(0),
            "short": rng.lognormal(3.0, 1.0, 40),  # fewer than 59 waits
            # 0.1 is not a dyadic fraction: any change in the order of the
            # mean's additions would move it by an ulp and flip a score.
            "all-equal": np.full(400, 0.1),
            "all-zero": np.zeros(400),
            "outlier": np.where(np.arange(400) == 200, 1e12,
                                rng.lognormal(3.0, 1.0, 400)),
        }[case]
        trace = _make_trace(np.full(waits.size, 100.0), waits)
        for config in (ReplayConfig(record_series=True),
                       ReplayConfig(epoch=50.0, training_fraction=0.3)):
            _assert_identical(trace, config, _paper_bank, set(_paper_bank()))


class TestBootstrapKernel:
    """The bootstrap's draw tape: each refit's ordinal on the loop's path,
    checked against the reference engine's quotes and final stream."""

    def test_two_draws_at_the_training_prefix(self):
        # One short-wait job per epoch: every job drains at the next
        # boundary, so nothing drains between the transition segment's
        # boundary refit and ``finish_training``.  Both refit the same 40
        # waits and each draws; the series keeps the first quote, the jobs
        # get the second.
        rng = np.random.default_rng(14)
        waits = rng.lognormal(2.0, 0.5, 100)
        trace = _make_trace(np.full(100, 310.0), waits)
        config = ReplayConfig(training_fraction=0.4, record_series=True)
        seen = []
        real = BootstrapQuantilePredictor._compute_bound

        def spy(predictor):
            seen.append(len(predictor.history))
            return real(predictor)

        with mock.patch.object(BootstrapQuantilePredictor, "_compute_bound", spy):
            replay(trace, {"b": BootstrapQuantilePredictor()}, config,
                   engine="reference")
        assert seen.count(40) == 2
        _assert_identical(trace, config, _bootstrap_bank, set(_bootstrap_bank()))

    def test_fire_refit_on_a_boundary(self):
        # Every drain is a one-job boundary drain, so each fire's refit
        # lands on the prefix of the boundary refit that follows it, which
        # then finds nothing new and draws nothing.
        rng = np.random.default_rng(15)
        calm = rng.lognormal(2.0, 0.3, 120)
        ramp = np.minimum(20.0 * 1.03 ** np.arange(120), 290.0)
        waits = np.concatenate([calm, ramp])
        trace = _make_trace(np.full(waits.size, 310.0), waits)
        config = ReplayConfig(record_series=True)
        reference = replay(trace, _bootstrap_bank(), config, engine="reference")
        assert reference["bootstrap"].change_points > 0
        assert reference["bootstrap-trim4"].change_points > 0
        _assert_identical(trace, config, _bootstrap_bank, set(_bootstrap_bank()))

    @pytest.mark.parametrize("case", [
        "empty", "under-30", "under-59", "all-equal", "all-zero", "outlier",
    ])
    def test_degenerate_inputs(self, case):
        rng = np.random.default_rng(16)
        waits = {
            "empty": np.empty(0),
            "under-30": rng.lognormal(3.0, 1.0, 25),
            "under-59": rng.lognormal(3.0, 1.0, 45),
            "all-equal": np.full(400, 0.1),
            "all-zero": np.zeros(400),
            "outlier": np.where(np.arange(400) == 200, 1e12,
                                rng.lognormal(3.0, 1.0, 400)),
        }[case]
        trace = _make_trace(np.full(waits.size, 100.0), waits)
        for config in (ReplayConfig(record_series=True),
                       ReplayConfig(epoch=50.0, training_fraction=0.3)):
            _assert_identical(trace, config, _bootstrap_bank, set(_bootstrap_bank()))


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
