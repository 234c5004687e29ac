"""Tests for the parallel experiment engine.

The contracts under test are the ones the experiments lean on:

* parallel results are *identical* (not just close) to serial results for
  a fixed seed — traces are regenerated worker-side from the same spec;
* cache hits after a simulated process restart return equal results and do
  zero replays;
* corrupted or stale-version cache entries are recomputed, never a crash;
* worker exceptions propagate as :class:`WorkerError` with the remote
  traceback, in task order.
"""

from __future__ import annotations

import multiprocessing
import pickle

import pytest
from scipy import stats as sps

from repro.core import rare_event
from repro.core.predictor import QuantilePredictor
from repro.corpus.etl import ingest
from repro.corpus.fixtures import generate_corpus_fixture
from repro.corpus.replay import replay_store
from repro.experiments.clustering_eval import run_clustering_eval
from repro.experiments.parallel import queue_work, run_bin_batch, run_queue_batch
from repro.experiments.runner import ExperimentConfig, clear_caches, table3_specs
from repro.experiments.sensitivity import run_sensitivity
from repro.runtime import (
    CACHE_VERSION,
    Task,
    WorkerError,
    configure,
    reset_configuration,
    reset_stats,
    resolve_jobs,
    run_tasks,
    stats,
)


@pytest.fixture(autouse=True)
def _default_engine_settings():
    """Shield these tests from sticky configure() calls made elsewhere."""
    reset_configuration()
    yield
    reset_configuration()

#: Small but non-trivial: a few hundred jobs per queue.
TINY = ExperimentConfig(scale=0.01, seed=11, min_jobs=250)

fork_available = "fork" in multiprocessing.get_all_start_methods()


@pytest.fixture
def fresh_cache_dir(tmp_path, monkeypatch):
    """A private on-disk cache plus clean in-process caches and counters."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("BMBP_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("BMBP_JOBS", raising=False)
    clear_caches()
    reset_stats()
    yield cache_dir
    clear_caches()


def _assert_results_equal(a, b):
    assert set(a) == set(b)
    for method in a:
        ra, rb = a[method], b[method]
        assert ra.n_evaluated == rb.n_evaluated
        assert ra.n_correct == rb.n_correct
        assert ra.n_skipped == rb.n_skipped
        assert ra.ratios == rb.ratios  # exact, not approx
        assert ra.change_points == rb.change_points


def _tasks(specs, config=TINY):
    return [
        Task(func=queue_work, args=(spec.machine, spec.queue, config),
             label=spec.label)
        for spec in specs
    ]


class TestDeterminism:
    def test_parallel_results_identical_to_serial(self, fresh_cache_dir):
        specs = table3_specs()[:2]
        serial = run_tasks(_tasks(specs), jobs=1, cache=False)
        parallel = run_tasks(_tasks(specs), jobs=2, cache=False)
        for s, p in zip(serial, parallel):
            _assert_results_equal(s, p)

    def test_results_come_back_in_task_order(self, fresh_cache_dir):
        specs = table3_specs()[:3]
        results = run_tasks(_tasks(specs), jobs=2, cache=False)
        for spec, result in zip(specs, results):
            assert result["bmbp"].trace_name == spec.label


class TestPersistentCache:
    def test_hit_after_simulated_restart(self, fresh_cache_dir):
        specs = table3_specs()[:1]
        first = run_queue_batch(specs, TINY)
        clear_caches()  # drop in-process state: "new process"
        before = stats()
        second = run_queue_batch(specs, TINY)
        delta = stats().since(before)
        assert delta.cache_hits == 1
        assert delta.cache_misses == 0
        _assert_results_equal(first[0], second[0])

    def test_in_process_cache_short_circuits_disk(self, fresh_cache_dir):
        specs = table3_specs()[:1]
        first = run_queue_batch(specs, TINY)
        before = stats()
        second = run_queue_batch(specs, TINY)
        assert second[0] is first[0]  # same objects, no engine round-trip
        delta = stats().since(before)
        assert delta.cache_hits == 0 and delta.cache_misses == 0

    def test_corrupt_entry_recomputed_not_crash(self, fresh_cache_dir):
        specs = table3_specs()[:1]
        first = run_queue_batch(specs, TINY)
        entries = list(fresh_cache_dir.glob("v*/*.pkl"))
        assert entries, "replay result was not persisted"
        for entry in entries:
            entry.write_bytes(b"\x00garbage, not a pickle")
        clear_caches()
        before = stats()
        second = run_queue_batch(specs, TINY)
        delta = stats().since(before)
        assert delta.cache_misses == 1  # recomputed, not served
        _assert_results_equal(first[0], second[0])

    def test_stale_version_entry_recomputed(self, fresh_cache_dir):
        specs = table3_specs()[:1]
        first = run_queue_batch(specs, TINY)
        entries = list(fresh_cache_dir.glob("v*/*.pkl"))
        assert entries
        for entry in entries:
            payload = pickle.loads(entry.read_bytes())
            payload["version"] = CACHE_VERSION + 1
            entry.write_bytes(pickle.dumps(payload))
        clear_caches()
        before = stats()
        second = run_queue_batch(specs, TINY)
        delta = stats().since(before)
        assert delta.cache_hits == 0
        assert delta.cache_misses == 1
        _assert_results_equal(first[0], second[0])

    def test_different_config_is_a_different_key(self, fresh_cache_dir):
        specs = table3_specs()[:1]
        run_queue_batch(specs, TINY)
        clear_caches()
        other = ExperimentConfig(scale=0.01, seed=12, min_jobs=250)
        before = stats()
        run_queue_batch(specs, other)
        delta = stats().since(before)
        assert delta.cache_hits == 0 and delta.cache_misses == 1


@pytest.mark.skipif(not fork_available, reason="needs fork start method")
class TestParentPrime:
    @pytest.mark.skipif(not fork_available, reason="needs fork start method")
    def test_before_fork_runs_only_when_a_pool_starts(self, fresh_cache_dir):
        """A warm or serial run must not pay for filling the tables."""
        calls = []
        tasks = [Task(func=_square, args=(x,), label=f"sq-{x}") for x in (2, 3)]

        def run(**kwargs):
            return run_tasks(tasks, before_fork=lambda: calls.append(kwargs),
                             **kwargs)

        assert run(jobs=1) == [4, 9]  # serial misses, now cached
        assert run(jobs=2) == [4, 9]  # every task hits the cache
        assert run(jobs=2, cache=False) == [4, 9]  # a pool starts
        assert calls == [{"jobs": 2, "cache": False}]

    @pytest.mark.skipif(not fork_available, reason="needs fork start method")
    def test_corpus_replay_primes_only_before_a_pool(
        self, fresh_cache_dir, tmp_path, monkeypatch
    ):
        """``replay_store`` fills its bank's tables in the parent only when
        a pool is about to fork: a serial replay and an all-hits replay do
        not prime, a 2-worker cold replay primes once (one bank)."""
        log = tmp_path / "fix.swf.gz"
        generate_corpus_fixture(log, jobs=3000, seed=13)
        store, _ = ingest(log, tmp_path / "site", site="prime-site")
        primed = []
        original = QuantilePredictor.prime

        def counting(self, max_n):
            primed.append(max_n)
            original(self, max_n)

        monkeypatch.setattr(QuantilePredictor, "prime", counting)

        def replayed(**kwargs):
            primed.clear()
            report = replay_store(
                store, methods=["bmbp"], min_queue_jobs=200,
                split_threshold=800, **kwargs
            )
            return report["provenance"]["cache"], len(primed)

        cold, serial = replayed(jobs=1)
        assert cold["misses"] > 1 and serial == 0
        warm, hits_only = replayed(jobs=2)
        assert warm["misses"] == 0 and warm["hits"] == cold["misses"]
        assert hits_only == 0
        pooled, pool_primes = replayed(jobs=2, cache=False)
        assert pooled["misses"] == cold["misses"] and pool_primes == 1

    def test_forked_workers_inherit_the_primed_tables(
        self, fresh_cache_dir, monkeypatch
    ):
        """After one pooled batch the parent holds every K′ bucket and the
        rare-event table; a second pooled batch must not compute either
        again, in the parent or in a worker (which fails the batch with a
        ``WorkerError``).  The (q, C) level is one no other test uses, so
        no earlier test has filled these tables in this process."""
        config = ExperimentConfig(
            scale=0.01, seed=11, min_jobs=250, quantile=0.93, confidence=0.91
        )
        specs = table3_specs()[:3]
        configure(cache=False)
        run_queue_batch(specs, config, jobs=2)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-process table was rebuilt")

        monkeypatch.setattr(sps.nct, "ppf", refuse)
        monkeypatch.setattr(rare_event, "generate_rare_event_table", refuse)
        clear_caches()
        forked = run_queue_batch(specs, config, jobs=2)
        forked_bins = run_bin_batch(specs, config, jobs=2)
        clear_caches()
        serial = run_queue_batch(specs, config, jobs=1)
        for f, s in zip(forked, serial):
            _assert_results_equal(f, s)
        for f, s in zip(forked_bins, run_bin_batch(specs, config, jobs=1)):
            assert set(f) == set(s)
            for label in f:
                assert (f[label] is None) == (s[label] is None)
                if f[label] is not None:
                    _assert_results_equal(f[label], s[label])

    @pytest.mark.parametrize("experiment", [run_sensitivity, run_clustering_eval])
    def test_experiments_with_their_own_banks_prime_them(
        self, experiment, fresh_cache_dir, monkeypatch
    ):
        """Sensitivity (a quantile/confidence grid) and clustering-eval
        (grouped BMBP predictors) fan out banks of their own: after one
        pooled run from empty tables, a second pooled run must not build a
        table again.  Emptying the rare-event cache first makes the check
        independent of what earlier tests left in this process."""
        config = ExperimentConfig(
            scale=0.01, seed=11, min_jobs=250, quantile=0.92, confidence=0.9
        )
        configure(jobs=2, cache=False)
        rare_event.default_rare_event_table.cache_clear()
        first = experiment(config)

        def refuse(*args, **kwargs):
            raise AssertionError("a per-process table was rebuilt")

        monkeypatch.setattr(sps.nct, "ppf", refuse)
        monkeypatch.setattr(rare_event, "generate_rare_event_table", refuse)
        assert repr(experiment(config)) == repr(first)


def _boom(tag):
    raise ValueError(f"boom {tag}")


class TestWorkerErrors:
    def test_error_propagates_serial(self, fresh_cache_dir):
        task = Task(func=_boom, args=("x",), label="exploding")
        with pytest.raises(WorkerError) as excinfo:
            run_tasks([task], jobs=1)
        assert excinfo.value.label == "exploding"
        assert "ValueError" in excinfo.value.remote_traceback
        assert "boom x" in excinfo.value.remote_traceback

    @pytest.mark.skipif(not fork_available, reason="needs fork start method")
    def test_error_propagates_from_pool_in_task_order(self, fresh_cache_dir):
        tasks = [
            Task(func=_boom, args=(tag,), label=f"boom-{tag}")
            for tag in ("first", "second")
        ]
        with pytest.raises(WorkerError) as excinfo:
            run_tasks(tasks, jobs=2)
        assert excinfo.value.label == "boom-first"
        assert "boom first" in excinfo.value.remote_traceback


class TestJobsResolution:
    def test_explicit_wins(self):
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == 1  # clamped

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("BMBP_JOBS", "5")
        assert resolve_jobs() == 5
        monkeypatch.setenv("BMBP_JOBS", "not-a-number")
        assert resolve_jobs() == 1

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("BMBP_JOBS", raising=False)
        assert resolve_jobs() == 1


def _square(x):
    return x * x


class TestProgressCallback:
    def test_serial_ticks_in_task_order(self, fresh_cache_dir):
        tasks = [Task(func=_square, args=(i,), label=f"s{i}")
                 for i in range(5)]
        seen = []
        run_tasks(tasks, jobs=1, cache=False,
                  progress=lambda d, t: seen.append((d, t)))
        assert seen == [(i + 1, 5) for i in range(5)]

    def test_cache_hits_tick_immediately(self, fresh_cache_dir):
        tasks = [Task(func=_square, args=(i,), label=f"h{i}") for i in range(4)]
        run_tasks(tasks, jobs=1, cache=True)
        seen = []
        run_tasks(tasks, jobs=1, cache=True,
                  progress=lambda d, t: seen.append((d, t)))
        assert seen == [(i + 1, 4) for i in range(4)]

    @pytest.mark.skipif(not fork_available, reason="no fork start method")
    def test_pool_ticks_once_per_task(self, fresh_cache_dir):
        tasks = [Task(func=_square, args=(i,), label=f"p{i}")
                 for i in range(6)]
        seen = []
        results = run_tasks(tasks, jobs=2, cache=False,
                            progress=lambda d, t: seen.append((d, t)))
        assert results == [i * i for i in range(6)]
        # Completion order is nondeterministic; the tick sequence is not.
        assert seen == [(i + 1, 6) for i in range(6)]


class TestCacheKeyOverride:
    def test_override_wins_over_args(self, fresh_cache_dir):
        first = Task(func=_square, args=(3,), label="a", cache_key="shared-key")
        # Different args, same explicit key: must be served from the first
        # task's cached result — the override, not the args, is the key.
        second = Task(func=_square, args=(4,), label="b", cache_key="shared-key")
        assert run_tasks([first], jobs=1, cache=True) == [9]
        before = stats()
        assert run_tasks([second], jobs=1, cache=True) == [9]
        delta = stats().since(before)
        assert delta.cache_hits == 1 and delta.cache_misses == 0

    def test_distinct_overrides_are_distinct_entries(self, fresh_cache_dir):
        a = Task(func=_square, args=(5,), label="a", cache_key="key-a")
        b = Task(func=_square, args=(5,), label="b", cache_key="key-b")
        run_tasks([a], jobs=1, cache=True)
        before = stats()
        run_tasks([b], jobs=1, cache=True)
        delta = stats().since(before)
        assert delta.cache_misses == 1 and delta.cache_hits == 0

    def test_default_key_unchanged_without_override(self, fresh_cache_dir):
        task = Task(func=_square, args=(7,), label="d")
        assert task.key() == Task(func=_square, args=(7,)).key()
        assert "shared" not in task.key()
