"""Tests for the corpus replay harness."""

import pytest

from repro.corpus.etl import ingest
from repro.corpus.fixtures import generate_corpus_fixture
from repro.corpus.replay import replay_store


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus-replay")
    log = tmp / "fix.swf.gz"
    generate_corpus_fixture(log, jobs=8000, seed=13)
    built, _ = ingest(log, tmp / "site", site="replay-site")
    return built


class TestReplayStore:
    def test_report_shape_and_coverage(self, store):
        report = replay_store(
            store, methods=["bmbp"], min_queue_jobs=300
        )
        assert report["site"] == "replay-site"
        assert report["rows"] == 8000
        assert report["methods"] == ["bmbp"]
        replayed = [
            q for q, row in report["queues"].items() if not row.get("skipped")
        ]
        assert replayed, "no queue was large enough to replay"
        assert report["jobs_replayed"] == sum(
            report["queues"][q]["jobs"] for q in replayed
        )
        for q in replayed:
            cov = report["queues"][q]["coverage"]
            assert cov["quantile"] == 0.95
            assert cov["confidence"] == 0.95
            assert cov["evaluated"] > 0
            assert 0.0 <= cov["wilson_low"] <= cov["fraction"]
            assert cov["fraction"] <= cov["wilson_high"] <= 1.0
        # The fixture's well-behaved waits should satisfy the paper claim.
        assert report["coverage_pass"]
        assert report["jobs_per_s"] > 0

    def test_small_queues_skipped(self, store):
        report = replay_store(store, methods=["bmbp"], min_queue_jobs=10**9)
        assert report["jobs_replayed"] == 0
        assert all(row["skipped"] for row in report["queues"].values())
        # Vacuous pass: nothing replayed means nothing failed.
        assert report["coverage_pass"]

    def test_method_subset_respected(self, store):
        report = replay_store(
            store, methods=["bmbp", "logn-trim"], min_queue_jobs=300
        )
        for q, row in report["queues"].items():
            if not row.get("skipped"):
                assert set(row["methods"]) == {"bmbp", "logn-trim"}

    def test_view_accepted_directly(self, store):
        report = replay_store(
            store.view(), methods=["bmbp"], min_queue_jobs=300
        )
        assert report["rows"] == 8000

