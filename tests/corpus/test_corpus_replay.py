"""Tests for the corpus replay harness and bench driver."""

import pytest

from repro.corpus.etl import ingest
from repro.corpus.fixtures import generate_corpus_fixture
from repro.corpus.replay import replay_store, run_corpus_bench


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


class TestBench:
    def test_smoke_bench_writes_artifact(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.corpus.replay._BENCH_SITES_SMOKE",
            (("syn-tiny", 6000, 20260808),),
        )
        # The parallel-speedup floor is a wall-clock ratio: on a 6 000-job
        # site the pool's fixed cost rivals the serial replay, so the ratio
        # hangs on the host's load, not on the code.  The floor stays in
        # ``run_corpus_bench`` and in the CI bench-corpus job (pinned at
        # 1.2x there); this test checks the artifact's deterministic content.
        monkeypatch.setattr("repro.corpus.replay.MIN_PARALLEL_SPEEDUP", 0.0)
        artifact = tmp_path / "BENCH_corpus.json"
        report = run_corpus_bench(
            smoke=True, workdir=tmp_path / "work", artifact=artifact
        )
        assert artifact.exists()
        assert report["schema"] == "bmbp-bench-corpus/2"
        assert report["smoke"] is True
        assert len(report["sites"]) == 1
        site = report["sites"][0]
        assert site["ingest"]["kept"] == 6000
        assert site["store"]["rows"] == 6000
        assert report["summary"]["coverage_pass"]
        assert report["summary"]["ingest_rows_per_s"] > 0
        # Scaling section: serial + parallel arms, cached re-run, identity.
        scaling = report["scaling"]
        arm_jobs = [row["jobs"] for row in scaling["rows"]]
        assert arm_jobs[0] == 1 and len(arm_jobs) > 1
        assert scaling["parallel_identical_to_serial"]
        cached = scaling["cached"]
        assert cached["misses"] == 0 and cached["hits"] > 0
        assert report["cpu_count"] >= 1
        site_scaling = site["scaling"]
        assert all(arm["identical_to_serial"] for arm in site_scaling["arms"])
        assert site_scaling["stragglers"], "straggler breakdown missing"
        top = site_scaling["stragglers"][0]
        assert {"unit", "queue", "rows", "seconds", "share"} <= set(top)
