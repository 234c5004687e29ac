"""The method registry: one name -> predictor mapping for every caller."""

import json
from pathlib import Path

import pytest

from repro.core.bank import CONFIDENCE, HEADLINE, QUANTILE, SKETCHES, make_bank
from repro.core.predictor import QuantilePredictor, prefix_kernel

VERIFY_REPORT = Path(__file__).resolve().parents[2] / "VERIFY.json"


class TestRegistry:
    @pytest.mark.parametrize("name", HEADLINE + SKETCHES)
    def test_every_name_builds_fresh_at_requested_level(self, name):
        a = make_bank((name,), quantile=0.9, confidence=0.8)[name]
        b = make_bank((name,), quantile=0.9, confidence=0.8)[name]
        assert isinstance(a, QuantilePredictor)
        assert a is not b
        assert (a.quantile, a.confidence) == (0.9, 0.8)
        default = make_bank((name,))[name]
        assert (default.quantile, default.confidence) == (QUANTILE, CONFIDENCE)

    def test_default_bank_is_the_headline_in_order(self):
        assert tuple(make_bank()) == HEADLINE
        assert len(HEADLINE) == 9

    def test_keys_match_the_committed_baseline_sweep(self):
        report = json.loads(VERIFY_REPORT.read_text())
        sweep = next(
            c for c in report["checks"]
            if c["name"] == "conformance/baseline-sweep"
        )
        assert list(sweep["details"]["fraction_correct"]) == list(
            HEADLINE + SKETCHES
        )

    def test_kernel_capability_per_method(self):
        # Decided by the class alone: every headline method has a prefix
        # kernel (weibull's walks from resync to resync); the approximate
        # sketches are fed event by event.
        bank = make_bank(HEADLINE + SKETCHES)
        served = {name for name, p in bank.items() if prefix_kernel(p) is not None}
        assert served == set(HEADLINE)
        assert len(served) == 9

    def test_unknown_name_is_refused(self):
        with pytest.raises(KeyError, match="downey-loguniform"):
            make_bank(("bmbp", "downey-loguniform"))
