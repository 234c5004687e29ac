"""Tests for the streaming ETL adapters and cleaning pass."""

import gzip

import pytest

from repro.corpus.etl import detect_format, ingest
from repro.corpus.fixtures import expected_drops, generate_corpus_fixture
from repro.corpus.store import CorpusError, CorpusStore
from repro.runtime import faults


@pytest.fixture()
def fixture_log(tmp_path):
    path = tmp_path / "fix.swf.gz"
    summary = generate_corpus_fixture(path, jobs=4000, seed=11)
    return path, summary


class TestDetectFormat:
    def test_swf_variants(self, tmp_path):
        assert detect_format("x.swf") == "swf"
        assert detect_format("x.swf.gz") == "swf"
        assert detect_format("jobs.csv") == "alibaba"
        assert detect_format("jobs.csv.gz") == "alibaba"
        with pytest.raises(CorpusError):
            detect_format("x.parquet")


class TestSwfIngest:
    def test_drop_ledger_matches_injected_anomalies(self, tmp_path, fixture_log):
        path, summary = fixture_log
        store, stats = ingest(path, tmp_path / "site")
        assert stats.kept == summary.jobs
        assert dict(stats.drops) == expected_drops(summary)
        assert store.rows == summary.jobs
        # The ledger is persisted in the manifest, never silent.
        assert store.manifest["etl"]["drops"] == expected_drops(summary)

    def test_header_queue_names_applied(self, tmp_path, fixture_log):
        path, _ = fixture_log
        store, _ = ingest(path, tmp_path / "site")
        assert set(store.queues()) == {"express", "normal", "low", "wide"}

    def test_source_checksum_recorded(self, tmp_path, fixture_log):
        path, _ = fixture_log
        from repro.workloads.archive import file_sha256

        store, stats = ingest(path, tmp_path / "site")
        assert stats.source_sha256 == file_sha256(path)
        assert store.manifest["source"]["sha256"] == stats.source_sha256
        assert store.manifest["source"]["bytes"] == path.stat().st_size

    def test_existing_dest_requires_force(self, tmp_path, fixture_log):
        path, _ = fixture_log
        dest = tmp_path / "site"
        ingest(path, dest)
        with pytest.raises(CorpusError):
            ingest(path, dest)
        store, _ = ingest(path, dest, force=True)
        assert store.rows > 0

    def test_out_of_order_submits_resorted(self, tmp_path):
        # Mildly out-of-order records (within the skew tolerance) are kept
        # and the finalize pass sorts the store.
        lines = [
            "1 100 10 60 4 -1 -1 4 -1 -1 1 1 1 -1 1 1 -1 -1",
            "2 300 10 60 4 -1 -1 4 -1 -1 1 1 1 -1 1 1 -1 -1",
            "3 200 10 60 4 -1 -1 4 -1 -1 1 1 1 -1 1 1 -1 -1",
        ]
        path = tmp_path / "log.swf"
        path.write_text("\n".join(lines) + "\n")
        store, stats = ingest(path, tmp_path / "site")
        assert stats.kept == 3
        assert store.manifest["etl"]["resorted"] is True
        submits = store.column("submit")
        assert list(submits) == [100.0, 200.0, 300.0]

    def test_clock_skew_dropped_beyond_tolerance(self, tmp_path):
        lines = [
            "1 100000 10 60 4 -1 -1 4 -1 -1 1 1 1 -1 1 1 -1 -1",
            "2 100 10 60 4 -1 -1 4 -1 -1 1 1 1 -1 1 1 -1 -1",  # 99900 s back
        ]
        path = tmp_path / "log.swf"
        path.write_text("\n".join(lines) + "\n")
        store, stats = ingest(path, tmp_path / "site")
        assert stats.kept == 1
        assert stats.drops["clock_skew"] == 1


class TestAlibabaIngest:
    CSV = (
        "job_name,inst_num,status,submit_time,start_time,end_time,plan_gpu,gpu_type\n"
        "j1,1,Terminated,100,160,400,100,V100\n"
        "j2,2,Terminated,200,230,500,50,T4\n"
        "j3,1,Failed,300,310,320,100,V100\n"
        "j4,1,Terminated,400,,,100,V100\n"
        "j5,1,Terminated,500,480,600,100,V100\n"
    )

    def test_schema_and_cleaning(self, tmp_path):
        path = tmp_path / "jobs.csv"
        path.write_text(self.CSV)
        store, stats = ingest(path, tmp_path / "site")
        # j1 and j2 kept; j3 wrong status, j4 unstarted, j5 negative wait.
        assert stats.kept == 2
        assert stats.drops["status"] == 1
        assert stats.drops["incomplete"] == 1
        assert stats.drops["negative_wait"] == 1
        view = store.view()
        assert set(store.queues()) == {"V100", "T4"}
        assert list(view.waits) == [60.0, 30.0]
        # j2: inst_num 2 x ceil(50/100)=1 -> procs 2.
        assert list(view.procs) == [1, 2]

    def test_gzip_csv(self, tmp_path):
        path = tmp_path / "jobs.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(self.CSV)
        _, stats = ingest(path, tmp_path / "site")
        assert stats.kept == 2


class TestFaultHook:
    def test_raise_action_leaves_no_store(self, tmp_path, fixture_log):
        path, _ = fixture_log
        dest = tmp_path / "site"
        faults.install("corpus.ingest:raise@1")
        try:
            with pytest.raises(RuntimeError, match="injected"):
                ingest(path, dest, chunk_rows=500)
        finally:
            faults.reset()
        assert not dest.exists()
        # No stale temp directories left behind either.
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".site")]
        assert leftovers == []

    def test_finalize_raise_leaves_no_store(self, tmp_path, fixture_log):
        path, _ = fixture_log
        dest = tmp_path / "site"
        faults.install("corpus.finalize:raise@1")
        try:
            with pytest.raises(RuntimeError, match="injected"):
                ingest(path, dest)
        finally:
            faults.reset()
        assert not dest.exists()

    def test_recovery_after_fault(self, tmp_path, fixture_log):
        path, summary = fixture_log
        dest = tmp_path / "site"
        faults.install("corpus.ingest:raise@1")
        try:
            with pytest.raises(RuntimeError):
                ingest(path, dest, chunk_rows=500)
        finally:
            faults.reset()
        store, stats = ingest(path, dest)
        assert store.rows == summary.jobs
        assert CorpusStore(dest).verify()["ok"]
