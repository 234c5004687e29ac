"""Segmented-journal durability: rolls, torn tails at boundaries, compaction
races, group commit, and the replication-facing read/append paths."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.server.state import (
    SEGMENT_PREFIX,
    SEGMENT_SUFFIX,
    StateError,
    StateStore,
    apply_event,
)
from repro.service import ForecasterConfig, QueueForecaster
from repro.runtime.faults import CRASH_EXIT_CODE

CONFIG = ForecasterConfig(training_jobs=5, by_bin=False, epoch=0.0)

#: Tiny segments: every couple of events rolls a new file, so a short
#: stream exercises the multi-segment code paths a production run only
#: hits after months.
TINY_SEGMENT = 256


def segments(directory):
    return sorted(Path(directory).glob(f"{SEGMENT_PREFIX}*{SEGMENT_SUFFIX}"))


def drive(store, forecaster, lo, hi, queue="q"):
    for i in range(lo, hi):
        submit = {"op": "submit", "job": f"j{i}", "queue": queue, "procs": 1,
                  "now": i * 400.0}
        apply_event(forecaster, submit)
        store.journal(submit)
        start = {"op": "start", "job": f"j{i}", "now": i * 400.0 + 50.0 + i % 5}
        apply_event(forecaster, start)
        store.journal(start)


class TestSegmentation:
    def test_appends_roll_to_new_segments(self, tmp_path):
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 20)
        store.close()
        paths = segments(tmp_path)
        assert len(paths) > 2
        # Filenames encode each segment's first seq, strictly increasing.
        firsts = [int(p.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)])
                  for p in paths]
        assert firsts == sorted(firsts)
        assert firsts[0] == 1

    def test_recover_spans_segments(self, tmp_path):
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 30)
        live = forecaster.forecast("q")
        store.close()

        fresh = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        recovered, replayed = fresh.recover(CONFIG)
        assert replayed == 60
        assert fresh.seq == 60
        assert recovered.forecast("q") == live

    def test_restart_never_appends_to_old_segment(self, tmp_path):
        store = StateStore(tmp_path)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 5)
        store.close()
        before = {p.name: p.stat().st_size for p in segments(tmp_path)}

        store = StateStore(tmp_path)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 5, 10)
        store.close()
        for name, size in before.items():
            assert (tmp_path / name).stat().st_size == size


class TestTornTails:
    def test_torn_tail_then_later_segment(self, tmp_path):
        """The ISSUE scenario: segment k ends in a torn record, intact
        segment k+1 (from the post-crash restart) follows.  Replay drops
        only the torn line and recovers everything acknowledged."""
        store = StateStore(tmp_path)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 10)
        store.close()
        torn = segments(tmp_path)[-1]
        torn.write_bytes(
            torn.read_bytes() + b'{"op":"submit","job":"torn","seq":21'
        )

        # Post-crash restart: recovery tolerates the tail, then opens a
        # fresh segment (never appending after the tear).
        store = StateStore(tmp_path)
        forecaster, replayed = store.recover(CONFIG)
        assert replayed == 20
        store.open()
        drive(store, forecaster, 10, 20)
        live = forecaster.forecast("q")
        store.close()
        assert len(segments(tmp_path)) >= 2

        recovered, replayed = StateStore(tmp_path).recover(CONFIG)
        assert replayed == 40
        assert recovered.forecast("q") == live
        assert recovered.pending_count() == 0  # the torn submit is gone

    def test_torn_tail_of_non_final_segment_is_dropped(self, tmp_path):
        """A torn line at the END of any segment is a crash artifact, even
        when later segments exist — it must not read as interior
        corruption."""
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 10)
        store.close()
        paths = segments(tmp_path)
        assert len(paths) >= 2
        first = paths[0]
        first.write_bytes(first.read_bytes() + b'{"op":"cancel","job"')

        recovered, replayed = StateStore(tmp_path).recover(CONFIG)
        assert replayed == 20  # every intact (= every acknowledged) entry

    def test_corrupt_interior_of_any_segment_raises(self, tmp_path):
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 10)
        store.close()
        first = segments(tmp_path)[0]
        lines = first.read_bytes().splitlines(keepends=True)
        lines[0] = b"garbage not json\n"
        first.write_bytes(b"".join(lines))
        with pytest.raises(StateError):
            StateStore(tmp_path).recover(CONFIG)


class TestCompaction:
    def test_compact_keeps_post_horizon_segments(self, tmp_path):
        """Compaction racing a checkpoint: deletion is decided purely from
        immutable filenames, so a stale horizon can only leave redundant
        segments — never remove one that still matters."""
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 30)
        live = forecaster.forecast("q")
        # A checkpoint that covers the first 15 jobs (entries 1..30) landed
        # while later entries were still streaming in; compaction runs with
        # that stale horizon.
        half = QueueForecaster(CONFIG)
        for i in range(15):
            apply_event(half, {"op": "submit", "job": f"j{i}", "queue": "q",
                               "procs": 1, "now": i * 400.0})
            apply_event(half, {"op": "start", "job": f"j{i}",
                               "now": i * 400.0 + 50.0 + i % 5})
        mid = 30
        (tmp_path / "checkpoint.json").write_text(json.dumps({
            "version": 1, "seq": mid, "forecaster": half.to_state(),
        }))
        removed = store.compact(mid)
        store.close()
        assert removed >= 1
        # Everything past the horizon must still be on disk…
        surviving = {e["seq"] for p in segments(tmp_path)
                     for e in map(json.loads, p.read_bytes().splitlines())}
        assert set(range(mid + 1, store.seq + 1)) <= surviving
        # …and checkpoint + surviving tail reproduce the live bounds.
        recovered, replayed = StateStore(tmp_path).recover(CONFIG)
        assert replayed == 30  # exactly entries 31..60; redundancy skipped
        assert recovered.forecast("q") == live

    def test_compact_is_idempotent_and_spares_newest(self, tmp_path):
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 10)
        store.checkpoint(forecaster)
        again = store.compact(store.seq)
        store.close()
        assert again == 0
        assert len(segments(tmp_path)) >= 1  # the active segment survives

    def test_crash_between_checkpoint_and_compaction(self, tmp_path):
        """The `journal.compact:crash` window: checkpoint renamed, segment
        deletion never ran.  The redundant segments must be skipped (not
        re-applied) on recovery, and a post-restart run stays
        bit-identical."""
        script = (
            "from repro.server.state import StateStore, apply_event\n"
            "from repro.service import ForecasterConfig\n"
            "import sys\n"
            "cfg = ForecasterConfig(training_jobs=5, by_bin=False, epoch=0.0)\n"
            "store = StateStore(sys.argv[1], segment_bytes=256)\n"
            "f, _ = store.recover(cfg)\n"
            "store.open()\n"
            "for i in range(10):\n"
            "    s = {'op': 'submit', 'job': 'j%d' % i, 'queue': 'q',\n"
            "         'procs': 1, 'now': i * 400.0}\n"
            "    apply_event(f, s); store.journal(s)\n"
            "    t = {'op': 'start', 'job': 'j%d' % i, 'now': i * 400.0 + 50.0 + i % 5}\n"
            "    apply_event(f, t); store.journal(t)\n"
            "store.checkpoint(f)\n"
        )
        env = dict(os.environ)
        env["BMBP_FAULTS"] = "journal.compact:crash@1"
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, timeout=60,
        )
        assert proc.returncode == CRASH_EXIT_CODE, proc.stderr.decode()
        assert (tmp_path / "checkpoint.json").exists()
        assert segments(tmp_path), "redundant segments should have survived"

        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        recovered, replayed = store.recover(CONFIG)
        assert replayed == 0  # every surviving entry is covered by the checkpoint
        reference = QueueForecaster(CONFIG)
        ref_store = StateStore(tmp_path / "ref")
        reference, _ = ref_store.recover(CONFIG)
        ref_store.open()
        drive(ref_store, reference, 0, 10)
        ref_store.close()
        assert recovered.forecast("q") == reference.forecast("q")


class TestGroupCommit:
    def test_batch_equals_sequential(self, tmp_path):
        a_store = StateStore(tmp_path / "a")
        a, _ = a_store.recover(CONFIG)
        a_store.open()
        b_store = StateStore(tmp_path / "b")
        b, _ = b_store.recover(CONFIG)
        b_store.open()

        entries = []
        for i in range(8):
            entries.append({"op": "submit", "job": f"j{i}", "queue": "q",
                            "procs": 1, "now": i * 400.0})
            entries.append({"op": "start", "job": f"j{i}", "now": i * 400.0 + 60.0})
        for e in entries:
            apply_event(a, e)
            a_store.journal(dict(e))
        for e in entries:
            apply_event(b, e)
        seqs = b_store.journal_batch([dict(e) for e in entries])
        a_store.close()
        b_store.close()

        assert seqs == list(range(1, len(entries) + 1))
        ra, na = StateStore(tmp_path / "a").recover(CONFIG)
        rb, nb = StateStore(tmp_path / "b").recover(CONFIG)
        assert na == nb == len(entries)
        assert ra.forecast("q") == rb.forecast("q")

    def test_empty_batch_is_a_noop(self, tmp_path):
        store = StateStore(tmp_path)
        store.recover(CONFIG)
        store.open()
        assert store.journal_batch([]) == []
        assert store.seq == 0
        store.close()


class TestReplicationPaths:
    def test_read_entries_since_exact_tail(self, tmp_path):
        store = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = store.recover(CONFIG)
        store.open()
        drive(store, forecaster, 0, 20)
        store.close()
        for horizon in (0, 1, 17, 39, 40):
            got = [e["seq"] for e in store.read_entries_since(horizon)]
            assert got == list(range(horizon + 1, 41)), f"horizon {horizon}"

    def test_read_entries_since_other_directory(self, tmp_path):
        """Promotion reads the dead primary's directory through a fresh
        store whose own seq is 0 — filename skipping must still work."""
        primary = StateStore(tmp_path, segment_bytes=TINY_SEGMENT)
        forecaster, _ = primary.recover(CONFIG)
        primary.open()
        drive(primary, forecaster, 0, 10)
        primary.close()

        reader = StateStore(tmp_path)  # no recover(): seq stays 0
        got = [e["seq"] for e in reader.read_entries_since(12)]
        assert got == list(range(13, 21))

    def test_journal_replicated_preserves_primary_seqs(self, tmp_path):
        store = StateStore(tmp_path)
        store.recover(CONFIG)
        store.open()
        store.journal_replicated({"op": "cancel", "job": "a", "seq": 7})
        assert store.seq == 7
        with pytest.raises(StateError):
            store.journal_replicated({"op": "cancel", "job": "b", "seq": 7})
        with pytest.raises(StateError):
            store.journal_replicated({"op": "cancel", "job": "c"})  # no seq
        store.journal_replicated({"op": "cancel", "job": "d", "seq": 9})
        store.close()
        got = [e["seq"] for e in store.read_entries_since(0)]
        assert got == [7, 9]

    def test_reset_to_snapshot_fsyncs_under_fsync(self, tmp_path, monkeypatch):
        """A follower that installs a streamed snapshot under ``--fsync`` is
        power-loss durable: the new checkpoint is fsynced before its
        rename, as a periodic checkpoint is."""
        donor = QueueForecaster(CONFIG)
        store = StateStore(tmp_path, fsync=True)
        store.recover(CONFIG)
        store.open()
        synced = []
        real_fsync = os.fsync

        def spy(fd):
            synced.append(os.fstat(fd).st_ino)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        store.reset_to_snapshot(donor, 5)
        store.close()
        assert os.stat(store.checkpoint_path).st_ino in synced

    def test_reset_to_snapshot_replaces_history(self, tmp_path):
        donor_store = StateStore(tmp_path / "donor")
        donor, _ = donor_store.recover(CONFIG)
        donor_store.open()
        drive(donor_store, donor, 0, 15)
        donor_store.close()

        follower = StateStore(tmp_path / "f", segment_bytes=TINY_SEGMENT)
        stale, _ = follower.recover(CONFIG)
        follower.open()
        drive(follower, stale, 0, 3, queue="stale")
        follower.reset_to_snapshot(donor, donor_store.seq)
        assert follower.seq == donor_store.seq
        assert follower.compacted_through == donor_store.seq
        # Post-snapshot replication continues entry-by-entry.
        follower.journal_replicated(
            {"op": "submit", "job": "late", "queue": "q", "procs": 1,
             "now": 9999.0, "seq": donor_store.seq + 1}
        )
        follower.close()

        recovered, replayed = StateStore(tmp_path / "f").recover(CONFIG)
        assert replayed == 1  # only the post-snapshot entry
        assert recovered.is_pending("late")
        assert "stale" not in recovered.queues()
