"""The committed ``VERIFY.json`` against the live check registries.

``bmbp verify --fast --json VERIFY.json`` writes the report; nothing
reruns it when a check, a golden fixture or a fault scenario is added.
These tests read the committed report without running any check and
fail when it no longer lists what the registries would run, so a stale
report shows up in the suite instead of going unnoticed.
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
