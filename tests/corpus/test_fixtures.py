"""Tests for the deterministic archive-shaped fixture generator."""

import gzip
import hashlib

import pytest

from repro.corpus import etl
from repro.corpus.fixtures import (
    FIXTURE_QUEUES,
    expected_drops,
    fixture_queue_names,
    generate_corpus_fixture,
)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.swf.gz"
        b = tmp_path / "b.swf.gz"
        sa = generate_corpus_fixture(a, jobs=3000, seed=7)
        sb = generate_corpus_fixture(b, jobs=3000, seed=7)
        assert a.read_bytes() == b.read_bytes()
        assert sa.anomalies == sb.anomalies

    def test_different_seed_differs(self, tmp_path):
        a = tmp_path / "a.swf.gz"
        b = tmp_path / "b.swf.gz"
        generate_corpus_fixture(a, jobs=3000, seed=7)
        generate_corpus_fixture(b, jobs=3000, seed=8)
        assert a.read_bytes() != b.read_bytes()


class TestShape:
    def test_summary_accounting(self, tmp_path):
        summary = generate_corpus_fixture(
            tmp_path / "f.swf.gz", jobs=5000, seed=3
        )
        assert summary.jobs == 5000
        assert sum(summary.queues.values()) == 5000
        assert summary.records == 5000 + sum(summary.anomalies.values())
        for kind in ("negative_wait", "zero_procs", "clock_skew"):
            assert summary.anomalies[kind] > 0
        assert summary.partial_records > 0
        assert expected_drops(summary) == summary.anomalies

    @pytest.mark.parametrize("seed", [1, 2, 3, 5, 8])
    def test_ledger_matches_ingest_at_short_gaps(self, tmp_path, seed):
        # At a 5 s gap the first clock-skew row, clamped at submit 0, can
        # sit inside the ETL's skew tolerance; the ETL keeps it, so the
        # ledger must not count it.
        summary = generate_corpus_fixture(
            tmp_path / "f.swf.gz", jobs=5000, seed=seed, base_gap=5.0
        )
        _, stats = etl.ingest(summary.path, tmp_path / "store")
        drops = expected_drops(summary)
        assert dict(stats.drops) == drops
        assert stats.kept == summary.records - sum(drops.values())

    def test_short_gap_log_bytes_unchanged(self, tmp_path):
        # The benchmark's dense log: the ledger fix must not move a byte.
        path = tmp_path / "dense.swf.gz"
        generate_corpus_fixture(path, jobs=60_000, seed=1, base_gap=5.0)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1479dae71e7fe45534672492843656363d20fa1ff5c2786c11f575a83ae728cf"
        )

    def test_header_declares_queues(self, tmp_path):
        path = tmp_path / "f.swf.gz"
        generate_corpus_fixture(path, jobs=2000, seed=3)
        with gzip.open(path, "rt") as fh:
            header = [line for line in fh if line.startswith(";")]
        text = "".join(header)
        for queue in FIXTURE_QUEUES:
            assert f"; Queue: {queue.number} {queue.name}" in text
        assert "MaxProcs" in text

    def test_record_count_on_disk(self, tmp_path):
        path = tmp_path / "f.swf.gz"
        summary = generate_corpus_fixture(path, jobs=2000, seed=5)
        with gzip.open(path, "rt") as fh:
            data_lines = [
                line for line in fh if line.strip() and not line.startswith(";")
            ]
        assert len(data_lines) == summary.records

    def test_no_anomalies_mode(self, tmp_path):
        summary = generate_corpus_fixture(
            tmp_path / "f.swf.gz", jobs=2000, seed=5, anomalies=False
        )
        assert summary.records == summary.jobs
        assert sum(summary.anomalies.values()) == 0

    def test_queue_names_helper(self):
        names = fixture_queue_names()
        assert names[1] == "express"
        assert len(names) == len(FIXTURE_QUEUES)
