"""Unit tests for the streaming quantile sketches (``core/sketch.py``).

The sketches are approximate by contract (conformance measures their
operational error — see ``verify/conformance.py``), so these tests pin the
*deterministic* guarantees instead: exactness at tiny counts, batch/scalar
state equivalence (the batched replay engine relies on it), bounded
memory, and the two sketch predictor classes (their names, their feed
paths, rebuild-on-trim).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import P2QuantilePredictor, TDigestQuantilePredictor
from repro.core.bank import SKETCHES, make_bank
from repro.core.predictor import observe_is_batch_aware
from repro.core.sketch import P2Quantile, TDigest

SKETCH_CLASSES = {"p2": P2QuantilePredictor, "tdigest": TDigestQuantilePredictor}


class TestP2Quantile:
    def test_exact_below_six_observations(self):
        sketch = P2Quantile(0.5)
        values = [5.0, 1.0, 3.0]
        for v in values:
            sketch.update(v)
        # ceil(0.5 * 3) = 2nd smallest
        assert sketch.quantile() == 3.0
        assert len(sketch) == 3

    def test_empty_returns_none(self):
        assert P2Quantile(0.9).quantile() is None

    def test_converges_on_uniform_stream(self):
        rng = np.random.default_rng(1)
        sketch = P2Quantile(0.95)
        sketch.update_batch(rng.uniform(0.0, 1.0, 50_000))
        assert sketch.quantile() == pytest.approx(0.95, abs=0.01)

    def test_median_of_standard_normal(self):
        rng = np.random.default_rng(2)
        sketch = P2Quantile(0.5)
        sketch.update_batch(rng.standard_normal(50_000))
        assert sketch.quantile() == pytest.approx(0.0, abs=0.02)

    def test_batch_equals_sequential(self):
        rng = np.random.default_rng(3)
        values = rng.lognormal(4.0, 1.0, 2_000)
        batched = P2Quantile(0.95)
        batched.update_batch(values)
        sequential = P2Quantile(0.95)
        for v in values:
            sequential.update(v)
        assert batched.quantile() == sequential.quantile()
        assert batched._q == sequential._q
        assert batched._n == sequential._n

    def test_reset(self):
        sketch = P2Quantile(0.9)
        sketch.update_batch(np.arange(100.0))
        sketch.reset()
        assert len(sketch) == 0
        assert sketch.quantile() is None

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)
        with pytest.raises(ValueError):
            P2Quantile(1.0)


class TestTDigest:
    def test_empty_returns_none(self):
        assert TDigest().quantile(0.5) is None

    def test_small_counts_are_tight(self):
        # Below the merge buffer nothing has been compressed away; the
        # digest must land within the sample's neighboring order stats.
        values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
        digest = TDigest()
        digest.update_batch(values)
        assert digest.quantile(0.5) == pytest.approx(3.0, abs=1.0)
        assert 4.0 <= digest.quantile(0.99) <= 100.0
        # Both interpolated tails are Python floats, like the middle.
        for p in (0.05, 0.5, 0.99):
            assert type(digest.quantile(p)) is float, p

    def test_converges_on_uniform_stream(self):
        rng = np.random.default_rng(6)
        digest = TDigest()
        digest.update_batch(rng.uniform(0.0, 1.0, 100_000))
        for q in (0.05, 0.5, 0.95, 0.99):
            assert digest.quantile(q) == pytest.approx(q, abs=0.01)

    def test_tail_quantiles_on_lognormal(self):
        rng = np.random.default_rng(7)
        values = rng.lognormal(4.0, 1.0, 100_000)
        digest = TDigest()
        digest.update_batch(values)
        exact = float(np.quantile(values, 0.95))
        assert digest.quantile(0.95) == pytest.approx(exact, rel=0.05)

    def test_batch_equals_sequential_bit_for_bit(self):
        # The replay engine's contract: update_batch leaves exactly the
        # state a per-item loop would, including identical merge points.
        rng = np.random.default_rng(8)
        values = rng.lognormal(4.0, 1.0, 3_000)
        batched = TDigest()
        batched.update_batch(values)
        sequential = TDigest()
        for v in values:
            sequential.update(v)
        assert np.array_equal(batched._means, sequential._means)
        assert np.array_equal(batched._weights, sequential._weights)
        assert batched._buf == sequential._buf
        assert batched.quantile(0.95) == sequential.quantile(0.95)

    def test_memory_stays_bounded(self):
        rng = np.random.default_rng(9)
        digest = TDigest()
        digest.update_batch(rng.standard_normal(200_000))
        digest.quantile(0.5)  # force a final compress
        # O(delta) centroids regardless of stream length.
        assert digest._means.size < 3 * digest.delta

    def test_extremes_are_clamped_to_observed_range(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(10.0, 20.0, 10_000)
        digest = TDigest()
        digest.update_batch(values)
        assert digest.quantile(0.001) >= 10.0
        assert digest.quantile(0.999) <= 20.0

    def test_reset(self):
        digest = TDigest()
        digest.update_batch(np.arange(1000.0))
        digest.reset()
        assert len(digest) == 0
        assert digest.quantile(0.5) is None

    def test_rejects_bad_probability(self):
        digest = TDigest()
        digest.update(1.0)
        with pytest.raises(ValueError):
            digest.quantile(0.0)
        with pytest.raises(ValueError):
            digest.quantile(1.0)
        with pytest.raises(ValueError):
            TDigest(delta=5)


class TestPredictorWiring:
    def test_sketch_modes_rename_the_method(self):
        # Each sketch bank method is its own class, named as the bank
        # names it.
        for name, predictor in make_bank(SKETCHES).items():
            assert predictor.name == name
        assert P2QuantilePredictor().name == "p2-quantile"
        assert TDigestQuantilePredictor().name == "tdigest-quantile"

    @pytest.mark.parametrize("cls", SKETCH_CLASSES.values(), ids=SKETCH_CLASSES)
    def test_observe_is_batch_aware(self, cls):
        # Registered, so the batched engine feeds a bank holding a sketch
        # in its segment loop instead of sending it to the reference
        # engine.
        assert observe_is_batch_aware(cls(0.95, 0.95))

    @pytest.mark.parametrize("cls", SKETCH_CLASSES.values(), ids=SKETCH_CLASSES)
    def test_batch_feed_equals_per_item_feed(self, cls):
        rng = np.random.default_rng(14)
        waits = rng.lognormal(3.0, 1.0, 700)
        predicted = np.where(np.arange(waits.size) % 3 == 0, 1.0, np.nan)
        batched = cls(0.95, 0.95, trim_length=10)
        batched.observe_batch(waits, predicted)
        sequential = cls(0.95, 0.95, trim_length=10)
        for wait, bound in zip(waits.tolist(), predicted.tolist()):
            sequential.observe(wait, None if math.isnan(bound) else bound)
        assert len(batched.history) == len(sequential.history)
        batched.refit()
        sequential.refit()
        assert batched.predict() == sequential.predict()

    @pytest.mark.parametrize("mode", SKETCH_CLASSES)
    def test_sketch_backed_point_quantile_tracks_exact(self, mode):
        rng = np.random.default_rng(11)
        waits = rng.lognormal(4.0, 1.0, 2_000)
        sketched = SKETCH_CLASSES[mode](0.95, 0.95)
        sketched.preload_history(waits)
        sketched.refit()
        rank = max(1, math.ceil(waits.size * 0.95))
        exact = float(np.sort(waits)[rank - 1])
        assert sketched.predict() == pytest.approx(exact, rel=0.25)

    def test_sketch_rebuilds_after_change_point_trim(self):
        predictor = TDigestQuantilePredictor(0.95, 0.95, trim=True, trim_length=10)
        rng = np.random.default_rng(13)
        for w in rng.lognormal(2.0, 0.3, 100):
            predictor.observe(float(w))
        predictor.refit()
        # Three consecutive misses against an absurdly low quote: fires.
        for w in (500.0, 600.0, 700.0):
            predictor.observe(w, predicted=1.0)
        assert len(predictor.history) == 10
        # The sketch was rebuilt from the retained window: its answer must
        # reflect only the trimmed history (which ends in the huge waits).
        assert predictor.predict() > 100.0
