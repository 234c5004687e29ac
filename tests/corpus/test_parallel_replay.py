"""Parallel corpus replay: identity, planning, caching, failure surface.

The contract under test is the tentpole guarantee of the parallel
planner: for a fixed unit plan (site + thresholds), the merged per-queue
report is *bit-identical* whether the units run serially in-process, in
a pool of any size, or are served from the persistent cache — and the
per-unit cache goes stale if and only if the unit's own data changes.
"""

import json
import multiprocessing

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from repro import runtime
from repro.core import rare_event
from repro.corpus.etl import ingest
from repro.corpus.fixtures import generate_corpus_fixture
from repro.corpus.replay import (
    ReplayUnit,
    _strip_volatile,
    plan_units,
    progress_printer,
    replay_store,
)
from repro.runtime.engine import Task, WorkerError
from repro.runtime import faults

JOBS = 4000
MIN_QUEUE = 200


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("parallel-replay")
    log = tmp / "fix.swf.gz"
    generate_corpus_fixture(log, jobs=JOBS, seed=97)
    built, _ = ingest(log, tmp / "site", site="par-site")
    return built


# Serial oracle reports, memoized per split threshold: the property below
# compares every (jobs, threshold) combination against the same baseline.
_baselines = {}


def _serial_baseline(store, threshold):
    if threshold not in _baselines:
        _baselines[threshold] = _strip_volatile(replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            split_threshold=threshold, jobs=1, cache=False,
            record_series=True,
        ))
    return _baselines[threshold]


class TestBitIdentity:
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        jobs=st.sampled_from([1, 2, 4]),
        threshold=st.sampled_from([300, 450, 700, 10**9]),
    )
    def test_rows_and_series_identical_across_jobs(self, store, jobs, threshold):
        """Coverage rows AND replay series match the serial oracle exactly
        for every worker count and chunk-split boundary."""
        report = replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            split_threshold=threshold, jobs=jobs, cache=False,
            record_series=True,
        )
        assert _strip_volatile(report) == _serial_baseline(store, threshold)

    def test_split_forces_chunks_and_unsplit_matches_legacy(self, store):
        split = replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            split_threshold=300, jobs=2, cache=False,
        )
        chunked = [q for q, row in split["queues"].items()
                   if row.get("chunks", 1) > 1]
        assert chunked, "no queue was large enough to shard"
        # Counts are plan-independent even though medians may differ
        # slightly between chunked and whole-queue training regimes.
        whole = replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            jobs=1, cache=False,
        )
        assert split["jobs_replayed"] == whole["jobs_replayed"]
        assert sorted(split["queues"]) == sorted(whole["queues"])

    def test_view_path_matches_store_path(self, store):
        from_view = replay_store(
            store.view(), methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            jobs=2,
        )
        from_store = replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            jobs=1, cache=False,
        )
        assert (_strip_volatile(from_view)["queues"]
                == _strip_volatile(from_store)["queues"])
        # A view's units run through the engine too: in-process (no
        # directory to re-open), uncached, each with its own timing.
        provenance = from_view["provenance"]
        assert provenance["jobs"] == 1
        assert provenance["cache"] == {
            "enabled": False, "hits": 0, "misses": len(provenance["units"]),
        }
        assert "store" not in provenance
        for unit in provenance["units"]:
            assert isinstance(unit["seconds"], float)
            assert unit["cached"] is False


class TestPlanner:
    @settings(max_examples=40, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=5000),
                       min_size=1, max_size=6),
        threshold=st.integers(min_value=50, max_value=6000),
    )
    def test_plan_covers_each_queue_exactly_once(self, sizes, threshold):
        class FakeView:
            def queues(self):
                return [f"q{i}" for i in range(len(sizes))]

            def queue_rows(self, queue):
                return sizes[int(queue[1:])]

        units, skipped = plan_units(
            FakeView(), site="s", min_queue_jobs=MIN_QUEUE,
            split_threshold=threshold,
        )
        for i, n in enumerate(sizes):
            name = f"q{i}"
            mine = sorted(
                (u for u in units if u.queue == name), key=lambda u: u.lo
            )
            if n < MIN_QUEUE:
                assert skipped[name] == n and not mine
                continue
            # Scored ranges tile [0, n) with no gaps or overlaps.
            assert mine[0].lo == 0 and mine[-1].hi == n
            for a, b in zip(mine, mine[1:]):
                assert a.hi == b.lo
            for u in mine:
                assert u.n_chunks == len(mine)
                assert u.queue_rows == n
                assert 0 <= u.warmup <= u.lo
                if u.chunk == 0:
                    assert u.warmup == 0
                else:
                    assert u.warmup >= 1
                assert u.hi - u.lo >= 1
        # Largest-cost-first dispatch order.
        costs = [u.cost for u in units]
        assert costs == sorted(costs, reverse=True)

    def test_unit_labels_are_unique(self, store):
        units, _ = plan_units(
            store.view(), site="par-site", min_queue_jobs=MIN_QUEUE,
            split_threshold=300,
        )
        labels = [u.label for u in units]
        assert len(labels) == len(set(labels))


class TestIncrementalCache:
    def _replay(self, store, **kw):
        return replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            split_threshold=10**9, jobs=1, cache=True, **kw
        )

    def test_mutating_one_queue_recomputes_only_that_queue(
        self, store, tmp_path
    ):
        runtime.configure(cache=True, cache_dir=str(tmp_path / "cache"))
        try:
            cold = self._replay(store)
            assert cold["provenance"]["cache"]["hits"] == 0
            n_units = len(cold["provenance"]["units"])
            warm = self._replay(store)
            assert warm["provenance"]["cache"] == {
                "enabled": True, "hits": n_units, "misses": 0,
            }
            assert _strip_volatile(warm) == _strip_volatile(cold)

            # Flip one wait value of one queue directly on disk — behind
            # the manifest's back, the way no ETL ever would.
            view = store.view()
            queue = view.queues()[0]
            qid = [k for k, v in view.queue_names.items() if v == queue][0]
            row = int(np.flatnonzero(
                np.asarray(view.queue_ids) == qid
            )[5])
            wait = np.memmap(store.path / "wait.f8", dtype="<f8", mode="r+")
            wait[row] += 1.0
            wait.flush()
            del wait
            try:
                dirty = self._replay(store)
            finally:
                wait = np.memmap(store.path / "wait.f8", dtype="<f8", mode="r+")
                wait[row] -= 1.0
                wait.flush()
                del wait
            # Exactly the mutated queue's unit went stale.
            assert dirty["provenance"]["cache"]["misses"] == 1
            assert dirty["provenance"]["cache"]["hits"] == n_units - 1
            recomputed = [
                u["unit"] for u in dirty["provenance"]["units"]
                if not u["cached"]
            ]
            assert len(recomputed) == 1 and f"/{queue}#" in recomputed[0]
        finally:
            runtime.reset_configuration()

    def test_cache_disabled_reports_provenance(self, store, tmp_path):
        runtime.configure(cache=True, cache_dir=str(tmp_path / "cache"))
        try:
            self._replay(store)  # populate
            off = replay_store(
                store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
                split_threshold=10**9, jobs=1, cache=False,
            )
        finally:
            runtime.reset_configuration()
        assert off["provenance"]["cache"]["enabled"] is False
        assert off["provenance"]["cache"]["hits"] == 0


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pool workers inherit the parent's memos only when forked",
)
class TestParentPrime:
    def _replay(self, store, jobs, cache_dir):
        runtime.configure(cache=True, cache_dir=str(cache_dir))
        try:
            return replay_store(store, min_queue_jobs=MIN_QUEUE, jobs=jobs)
        finally:
            runtime.reset_configuration()

    def test_forked_workers_inherit_the_primed_tables(
        self, store, tmp_path, monkeypatch
    ):
        """After one replay the parent holds every K′ bucket and the
        rare-event table; a second forked replay must not compute either
        again, in the parent or in a worker (which fails the replay with a
        ``WorkerError``)."""
        self._replay(store, 2, tmp_path / "first")

        def refuse(*args, **kwargs):
            raise AssertionError("a per-process table was rebuilt")

        monkeypatch.setattr(sps.nct, "ppf", refuse)
        monkeypatch.setattr(rare_event, "generate_rare_event_table", refuse)
        forked = self._replay(store, 2, tmp_path / "second")
        assert forked["provenance"]["cache"]["hits"] == 0
        serial = replay_store(store, min_queue_jobs=MIN_QUEUE, jobs=1, cache=False)
        assert _strip_volatile(forked) == _strip_volatile(serial)


class TestFailureAndProgress:
    def test_worker_error_carries_unit_label(self, store):
        faults.install("corpus.replay.unit:raise@1")
        try:
            with pytest.raises(WorkerError) as excinfo:
                replay_store(
                    store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
                    jobs=1, cache=False,
                )
        finally:
            faults.reset()
        assert "par-site/" in str(excinfo.value)
        assert "injected corpus.replay.unit fault" in str(excinfo.value)

    def test_progress_callback_ticks_per_unit(self, store):
        seen = []
        report = replay_store(
            store, methods=["bmbp"], min_queue_jobs=MIN_QUEUE,
            jobs=1, cache=False, progress=lambda d, t: seen.append((d, t)),
        )
        total = len(report["provenance"]["units"])
        assert seen == [(i + 1, total) for i in range(total)]

    def test_progress_printer_writes_eta_line(self, capsys):
        import io

        stream = io.StringIO()
        cb = progress_printer(stream=stream)
        cb(1, 2)
        cb(2, 2)
        text = stream.getvalue()
        assert "1/2 units" in text and "ETA" in text
        assert text.endswith("\n")


class TestCli:
    def test_corpus_replay_cli_jobs_and_progress(self, store, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main([
            "corpus", "replay", str(store.path), "--jobs", "2",
            "--no-cache", "--progress", "--min-queue-jobs", str(MIN_QUEUE),
            "--methods", "bmbp", "--json", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["provenance"]["jobs"] == 2
        assert report["provenance"]["cache"]["enabled"] is False
        captured = capsys.readouterr()
        assert "units" in captured.err  # the --progress line
        assert "2 worker(s)" in captured.out
