"""The committed ``VERIFY.json`` against the live check registries.

``bmbp verify --fast --json VERIFY.json`` writes the report; nothing
reruns it when a check, a golden fixture or a fault scenario is added.
Most tests here read the committed report without running any check and
fail when it no longer lists what the registries would run, so a stale
report shows up in the suite instead of going unnoticed.  Two cheap,
deterministic conformance checks are rerun at the fast tier and held to
their committed details, which pins every bank method's replay outcome
and both sketches' estimates.
"""

import json
from pathlib import Path

import pytest

from repro.verify import conformance, faults, golden
from repro.verify.runner import VERIFY_SCHEMA

REPORT = Path(__file__).resolve().parents[2] / "VERIFY.json"


@pytest.fixture(scope="module")
def committed():
    return json.loads(REPORT.read_text())


def _check(report, name):
    return next(c for c in report["checks"] if c["name"] == name)


class TestCommittedReport:
    def test_fast_tier_that_passed(self, committed):
        assert committed["schema"] == VERIFY_SCHEMA
        assert committed["tier"] == "fast"
        assert committed["passed"]
        assert all(c["passed"] for c in committed["checks"])

    def test_lists_every_registered_check_in_run_order(self, committed):
        expected = (
            [f"conformance/{name}" for name in conformance.CONFORMANCE_CHECKS]
            + ["golden/regression"]
            + [f"faults/{name}" for name in faults.SCENARIOS]
        )
        assert [c["name"] for c in committed["checks"]] == expected

    def test_golden_fixtures_match_the_golden_directory(self, committed):
        fixtures = _check(committed, "golden/regression")["details"]["fixtures"]
        pinned = sorted(p.name for p in golden.golden_dir().glob("golden-*.json"))
        assert fixtures == pinned

    @pytest.mark.parametrize(
        "name", ["baseline-sweep", "sketch-quantile-accuracy"]
    )
    def test_deterministic_details_match_a_rerun(self, committed, name):
        # Seeded and free of scheduling: a rerun must reproduce the
        # committed details exactly (only ``seconds`` may differ).
        entry = _check(committed, f"conformance/{name}")
        tier = conformance.TIERS[committed["tier"]]
        assert tier.seed == committed["seed"]
        passed, details = conformance.run_check(name, tier)
        assert passed == entry["passed"]
        assert details == entry["details"]
