"""Property-based tests of the core statistical guarantees.

BMBP's selling point is distribution-freeness: the bound construction must
deliver its stated coverage on *any* i.i.d. wait distribution.  These tests
draw distribution families and parameters with hypothesis and check the
guarantee end to end through the predictor protocol, plus structural
properties (monotonicity, determinism) that must hold for every input.
"""

import numpy as np
import pytest
from scipy import stats
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bmbp import BMBPPredictor
from repro.core.quantile import upper_confidence_bound
from repro.simulator.replay import replay_single
from repro.workloads.trace import Trace

from tests.conftest import make_trace


def sample_family(family: str, params: tuple, rng, n: int) -> np.ndarray:
    """Draw n waits from a named heavy-or-light-tailed family."""
    a, b = params
    if family == "lognormal":
        return rng.lognormal(mean=2.0 + 4.0 * a, sigma=0.3 + 2.5 * b, size=n)
    if family == "weibull":
        shape = 0.4 + 2.0 * a
        scale = 10.0 ** (1.0 + 3.0 * b)
        return scale * rng.weibull(shape, size=n)
    if family == "pareto":
        alpha = 1.1 + 2.0 * a
        scale = 10.0 ** (1.0 + 2.0 * b)
        return scale * (rng.pareto(alpha, size=n) + 1.0)
    if family == "uniform":
        hi = 10.0 ** (1.0 + 4.0 * a)
        return rng.uniform(0.0, hi, size=n)
    if family == "bimodal":
        low = rng.lognormal(1.0, 0.5, size=n)
        high = rng.lognormal(6.0 + 2.0 * a, 0.5 + b, size=n)
        pick = rng.random(n) < 0.5
        return np.where(pick, low, high)
    raise AssertionError(family)


FAMILIES = st.sampled_from(["lognormal", "weibull", "pareto", "uniform", "bimodal"])
PARAMS = st.tuples(
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


class TestDistributionFreeCoverage:
    @given(family=FAMILIES, params=PARAMS, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_sequential_coverage_on_any_iid_family(self, family, params, seed):
        """One-step-ahead coverage >= ~0.95 regardless of the distribution."""
        rng = np.random.default_rng(seed)
        waits = sample_family(family, params, rng, 2500)
        predictor = BMBPPredictor()
        hits = total = 0
        for wait in waits:
            bound = predictor.predict()
            if bound is not None:
                total += 1
                hits += wait <= bound
            predictor.observe(float(wait), predicted=bound)
            predictor.refit()
        assert total > 2000
        # 3-sigma slack below 0.95 for a ~2400-prediction sample.
        assert hits / total >= 0.95 - 3 * np.sqrt(0.95 * 0.05 / total)

    @given(family=FAMILIES, params=PARAMS, seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_static_bound_exceeds_true_quantile_usually(self, family, params, seed):
        """The one-shot bound is above the empirical quantile of fresh data
        at roughly the stated confidence."""
        n, m = 400, 4000
        rng = np.random.default_rng(seed)
        sample = sample_family(family, params, rng, n)
        bound = upper_confidence_bound(sample, 0.9, 0.95)
        fresh = sample_family(family, params, rng, m)
        exceed_count = int(np.count_nonzero(fresh > bound.value))
        # For a continuous i.i.d. family the bound's true exceedance
        # probability is 1 - F(X_(k)) ~ Beta(n - k + 1, k), whatever the
        # family, and the fresh exceedance count is binomial given it: a
        # beta-binomial.  Fail only past its 1 - 1e-6 quantile (about 16 %
        # for k = 370 of 400 and 4 000 fresh draws).
        limit = stats.betabinom.isf(1e-6, m, n - bound.rank + 1, bound.rank)
        assert exceed_count <= limit


class TestStructuralProperties:
    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=100,
            max_size=400,
        )
    )
    @settings(max_examples=50)
    def test_bound_monotone_in_quantile_and_confidence(self, values):
        b_90 = upper_confidence_bound(values, 0.90, 0.95)
        b_95 = upper_confidence_bound(values, 0.95, 0.95)
        if b_90 is not None and b_95 is not None:
            assert b_90.value <= b_95.value
        c_80 = upper_confidence_bound(values, 0.90, 0.80)
        if c_80 is not None and b_90 is not None:
            assert c_80.value <= b_90.value

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_replay_is_deterministic(self, seed):
        rng = np.random.default_rng(seed)
        waits = rng.lognormal(4, 1, 400)
        trace = make_trace(waits)
        a = replay_single(trace, BMBPPredictor())
        b = replay_single(trace, BMBPPredictor())
        assert a.fraction_correct == b.fraction_correct
        assert a.ratios == b.ratios

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=60,
            max_size=200,
        ),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_bound_is_scale_equivariant(self, values, scale):
        """Scaling every wait by c scales the (order-statistic) bound by c."""
        base = upper_confidence_bound(values, 0.9, 0.9)
        scaled = upper_confidence_bound([v * scale for v in values], 0.9, 0.9)
        if base is None:
            assert scaled is None
        else:
            assert scaled.value == pytest.approx(base.value * scale, rel=1e-9)

    @given(
        values=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=60,
            max_size=200,
        )
    )
    @settings(max_examples=50)
    def test_bound_is_permutation_invariant(self, values):
        forward = upper_confidence_bound(values, 0.95, 0.95)
        backward = upper_confidence_bound(list(reversed(values)), 0.95, 0.95)
        assert forward == backward
