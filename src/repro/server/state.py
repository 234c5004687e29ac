"""Daemon durability: atomic checkpoints plus a segmented write-ahead journal.

Queue history spans months and is irreplaceable, so the daemon must
survive any crash — including ``kill -9`` — without losing applied
events.  Two complementary pieces (the classic checkpoint/WAL split):

* **Checkpoint** (``checkpoint.json``): the forecaster's full state plus
  the sequence number of the last event it includes, written atomically
  (temp file + ``os.replace``, the same pattern as ``runtime/cache.py``)
  so a reader or a crash can never observe a torn snapshot.
* **Journal segments** (``journal-<first_seq>.ndjson``): one JSON line per
  applied mutation event (``submit``/``start``/``cancel``), appended and
  flushed *after* the event was applied in memory and *before* the
  response is sent.  Each line carries a monotonically increasing
  ``seq``.  Appends roll to a fresh segment once the active one exceeds
  ``segment_bytes``, and every :meth:`StateStore.open` starts a new
  segment (a crashed writer's torn tail therefore only ever sits at the
  *end* of a segment, possibly followed by intact later segments).

Recovery loads the newest checkpoint, then replays every journal entry
with ``seq`` greater than the checkpoint's, across all segments in order.
Because events carry their resolved timestamps and the forecaster is
deterministic, a recovered daemon quotes bounds identical to one that
never crashed.  A torn final line of a segment (the crash happened
mid-append) is detected and dropped; its event was never acknowledged to
any client.  A corrupt line *not* at the end of its segment is real data
loss and raises :class:`StateError`.

After a successful checkpoint the journal is **compacted**: whole
segments whose entries all fall at or below the checkpoint's ``seq`` are
deleted.  Replay also tolerates the crash window between checkpoint and
compaction by skipping already-absorbed sequence numbers, and compaction
never touches a segment containing any post-checkpoint entry, so a
checkpoint racing a compaction can at worst leave redundant segments
behind — never lose one that still matters.

The sharded fleet (:mod:`repro.fleet`) runs one ``StateStore`` per shard
and streams journal entries to a warm follower; :meth:`journal_batch`
(group commit: one write + one flush for a burst of pipelined events,
acks only after the flush), :meth:`journal_replicated` (append an entry
that already carries its primary-assigned ``seq``), and
:meth:`read_entries_since` (replication catch-up / follower promotion)
exist for that path.  The apply→journal→ack ordering contract is
identical in every mode.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.runtime import faults
from repro.service.forecaster import ForecasterConfig, QueueForecaster

__all__ = ["StateError", "StateStore", "apply_event"]

CHECKPOINT_NAME = "checkpoint.json"
#: Pre-segmentation single-file journal; still read (oldest first) so a
#: state directory written by an older daemon recovers losslessly.
LEGACY_JOURNAL_NAME = "journal.ndjson"
SEGMENT_PREFIX = "journal-"
SEGMENT_SUFFIX = ".ndjson"
CHECKPOINT_VERSION = 1

#: Roll the active segment once it exceeds this many bytes (default 4 MiB;
#: small enough that compaction reclaims space promptly, large enough that
#: rolls are rare on the hot path).
DEFAULT_SEGMENT_BYTES = 4 << 20

_SEGMENT_RE = re.compile(
    re.escape(SEGMENT_PREFIX) + r"(\d+)" + re.escape(SEGMENT_SUFFIX) + r"$"
)


class StateError(Exception):
    """Unrecoverably corrupt state (bad checkpoint, wrong version)."""


def apply_event(forecaster: QueueForecaster, entry: Dict[str, Any]) -> Any:
    """Apply one journaled mutation event to a forecaster.

    The single definition of event semantics, used on the live path,
    during replay, and by replication followers — which is what makes
    replay (and follower promotion) equivalent to having processed the
    events live.
    """
    op = entry["op"]
    if op == "submit":
        return forecaster.job_submitted(
            entry["job"], entry["queue"], entry["procs"], entry["now"]
        )
    if op == "start":
        return forecaster.job_started(entry["job"], entry["now"])
    if op == "cancel":
        return forecaster.job_cancelled(entry["job"])
    raise StateError(f"journal contains unknown op {op!r}")


def _segment_first_seq(path: Path) -> Optional[int]:
    match = _SEGMENT_RE.match(path.name)
    return int(match.group(1)) if match else None


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:012d}{SEGMENT_SUFFIX}"


class StateStore:
    """Checkpoint + segmented-journal management for one state directory."""

    def __init__(
        self,
        directory: Union[str, Path],
        fsync: bool = False,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.checkpoint_path = self.directory / CHECKPOINT_NAME
        self.fsync = fsync
        self.segment_bytes = max(1, int(segment_bytes))
        self.seq = 0  # sequence number of the last durable event
        self.events_since_checkpoint = 0
        #: Every entry with seq > compacted_through is replayable from the
        #: on-disk segments; a replication subscriber further behind needs
        #: a full snapshot instead of a journal tail.
        self.compacted_through = 0
        self.segments_compacted = 0
        self._journal = None  # type: Optional[Any]
        self._journal_bytes = 0

    # ------------------------------------------------------------- recovery

    def _segment_paths(self) -> List[Path]:
        """All journal files, oldest first (legacy single file leads)."""
        paths = sorted(
            (p for p in self.directory.iterdir() if _SEGMENT_RE.match(p.name)),
            key=lambda p: _segment_first_seq(p) or 0,
        )
        legacy = self.directory / LEGACY_JOURNAL_NAME
        if legacy.exists():
            paths.insert(0, legacy)
        return paths

    def recover(
        self, config: Optional[ForecasterConfig] = None
    ) -> Tuple[QueueForecaster, int]:
        """Rebuild the forecaster: checkpoint, then journal replay.

        Returns ``(forecaster, replayed)`` where ``replayed`` counts the
        journal events applied on top of the checkpoint.  ``config`` is
        used only when starting fresh (no checkpoint); a checkpoint's own
        persisted config always wins, so a restart cannot silently change
        prediction parameters.
        """
        forecaster, checkpoint_seq = self._load_checkpoint(config)
        self.seq = checkpoint_seq
        self.compacted_through = checkpoint_seq
        replayed = 0
        for entry in self._read_journal():
            seq = entry.get("seq")
            if not isinstance(seq, int) or seq <= self.seq:
                continue  # pre-checkpoint entry (crash before compaction)
            apply_event(forecaster, entry)
            self.seq = seq
            replayed += 1
        self.events_since_checkpoint = replayed
        # Entries older than the checkpoint may survive in pre-compaction
        # segments, but the replayable horizon is what matters for sync.
        self.compacted_through = min(self.compacted_through, checkpoint_seq)
        return forecaster, replayed

    def _load_checkpoint(
        self, config: Optional[ForecasterConfig]
    ) -> Tuple[QueueForecaster, int]:
        if not self.checkpoint_path.exists():
            return QueueForecaster(config), 0
        try:
            payload = json.loads(self.checkpoint_path.read_text())
        except ValueError as exc:
            raise StateError(
                f"corrupt checkpoint {self.checkpoint_path}: {exc}"
            ) from exc
        if payload.get("version") != CHECKPOINT_VERSION:
            raise StateError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        forecaster = QueueForecaster.from_state(payload["forecaster"])
        return forecaster, int(payload.get("seq", 0))

    def _read_segment(self, path: Path) -> Iterator[Dict[str, Any]]:
        """Yield well-formed entries of one segment; a torn final line is
        dropped (its event was never acknowledged), a corrupt interior
        line raises."""
        try:
            with open(path, "rb") as handle:
                lines = handle.read().split(b"\n")
        except OSError:
            return
        for i, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                if i >= len(lines) - 2:
                    # Torn tail from a crash mid-append.  Later segments
                    # (from post-crash restarts) carry higher seqs, so
                    # dropping only this segment's tail is correct.
                    break
                raise StateError(
                    f"corrupt journal line {i + 1} in {path}"
                ) from None
            if isinstance(entry, dict):
                yield entry

    def _read_journal(self) -> Iterator[Dict[str, Any]]:
        for path in self._segment_paths():
            for entry in self._read_segment(path):
                yield entry

    def read_entries_since(self, seq: int) -> Iterator[Dict[str, Any]]:
        """Yield journal entries with ``seq`` strictly greater than ``seq``.

        Used by replication catch-up and follower promotion.  Whole
        segments below the horizon are skipped by filename, so tailing the
        recent past never re-reads months of history.
        """
        paths = self._segment_paths()
        for i, path in enumerate(paths):
            # A segment whose *successor* starts at or below the horizon
            # cannot contain anything we need.
            if i + 1 < len(paths):
                next_first = _segment_first_seq(paths[i + 1])
                if next_first is not None and next_first <= seq + 1:
                    continue
            for entry in self._read_segment(path):
                entry_seq = entry.get("seq")
                if isinstance(entry_seq, int) and entry_seq > seq:
                    yield entry

    # ------------------------------------------------------------ journaling

    def open(self) -> None:
        """Open a fresh journal segment for appending (after recover()).

        Never appends to an existing segment: a pre-crash segment may end
        in a torn line, and sealing it keeps the invariant that torn lines
        only ever sit at segment tails.
        """
        self._open_segment()

    def _open_segment(self) -> None:
        if self._journal is not None:
            self._journal.close()
        path = self.directory / _segment_name(self.seq + 1)
        self._journal = open(path, "ab")
        self._journal_bytes = self._journal.tell()

    def _maybe_roll(self) -> None:
        if self._journal_bytes >= self.segment_bytes:
            self._open_segment()

    def journal(self, entry: Dict[str, Any]) -> int:
        """Append one event; returns its sequence number.

        The line is flushed to the OS before returning, so the event
        survives process death (``kill -9``) the moment the caller sends
        its acknowledgement.  ``fsync=True`` additionally survives power
        loss, at a large per-event cost.
        """
        return self.journal_batch([entry])[0]

    def journal_batch(self, entries: List[Dict[str, Any]]) -> List[int]:
        """Group commit: append a burst of events with one write + flush.

        Returns the assigned sequence numbers, in order.  The ordering
        contract is identical to per-event :meth:`journal`: no caller may
        acknowledge any of these events before this method returns, so a
        crash mid-batch only ever loses unacknowledged events.
        """
        if self._journal is None:
            raise StateError("journal is not open")
        if not entries:
            return []
        seqs: List[int] = []
        encoded: List[bytes] = []
        crash_after = False
        for entry in entries:
            self.seq += 1
            seqs.append(self.seq)
            record = dict(entry)
            record["seq"] = self.seq
            line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
            fault = faults.fire("journal.write")
            if fault == "torn":
                # Crash mid-append: everything before this event plus half
                # its line reaches the OS; no ack was sent for any of them.
                torn = b"".join(encoded) + line[: max(1, len(line) // 2)]
                self._journal.write(torn)
                self._journal.flush()
                faults.crash()
            encoded.append(line)
            if fault == "crash":
                crash_after = True
        payload = b"".join(encoded)
        self._journal.write(payload)
        self._journal.flush()
        if self.fsync:
            os.fsync(self._journal.fileno())
        if crash_after:
            # Crash after the flush: the events are durable but no ack was
            # sent — recovery must surface them (at-least-once semantics).
            faults.crash()
        self._journal_bytes += len(payload)
        self.events_since_checkpoint += len(entries)
        self._maybe_roll()
        return seqs

    def journal_replicated(self, record: Dict[str, Any]) -> int:
        """Append an entry that already carries its primary-assigned seq.

        The follower side of replication: entries must land on the
        follower's disk with the *primary's* sequence numbers, so that a
        promoted follower's journal is indistinguishable from the
        primary's.  Out-of-order or replayed records are rejected.
        """
        if self._journal is None:
            raise StateError("journal is not open")
        seq = record.get("seq")
        if not isinstance(seq, int) or seq <= self.seq:
            raise StateError(
                f"replicated record seq {seq!r} is not beyond local seq {self.seq}"
            )
        line = json.dumps(record, separators=(",", ":")).encode() + b"\n"
        self._journal.write(line)
        self._journal.flush()
        if self.fsync:
            os.fsync(self._journal.fileno())
        self.seq = seq
        self._journal_bytes += len(line)
        self.events_since_checkpoint += 1
        self._maybe_roll()
        return seq

    # ----------------------------------------------------------- checkpoints

    def checkpoint(self, forecaster: QueueForecaster) -> int:
        """Atomically checkpoint the forecaster, then compact the journal.

        Returns the sequence number the checkpoint covers.  Crash-safe at
        every instant: before ``os.replace`` the old checkpoint + full
        journal is intact; between replace and compaction the pre-
        checkpoint segments are merely redundant (replay skips ``seq <=``
        checkpoint).
        """
        checkpoint_seq = self.seq
        self._write_checkpoint(
            forecaster, checkpoint_seq, faults.fire("checkpoint.replace")
        )
        self.compact(checkpoint_seq)
        self.events_since_checkpoint = 0
        return checkpoint_seq

    def _write_checkpoint(
        self, forecaster: QueueForecaster, seq: int, fault: Optional[str] = None
    ) -> None:
        """Atomically replace the checkpoint file (temp file + ``os.replace``;
        the temp file is fsynced first when ``fsync`` is on).  ``fault`` is a
        fired ``checkpoint.replace`` action: crash before or after the rename.
        """
        payload = json.dumps(
            {
                "version": CHECKPOINT_VERSION,
                "seq": seq,
                "forecaster": forecaster.to_state(),
            }
        )
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=".checkpoint.", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
                if self.fsync:
                    handle.flush()
                    os.fsync(handle.fileno())
            if fault == "crash-before":
                # Temp file written, atomic rename never happens: recovery
                # must use the previous checkpoint plus the full journal.
                faults.crash()
            os.replace(tmp_name, self.checkpoint_path)
            if fault == "crash-after":
                # Renamed but the journal was not compacted: replay must
                # skip the now-redundant pre-checkpoint entries.
                faults.crash()
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def compact(self, through_seq: int) -> int:
        """Delete journal files fully covered by a checkpoint at ``through_seq``.

        Safe against racing a checkpoint: a segment is deleted only when
        *every* entry it can contain is at or below ``through_seq``, which
        is decided from the successor segment's first-seq filename — never
        from mutable in-memory state.  The active segment is first sealed
        and a fresh one opened, so appends continue uninterrupted.

        Returns the number of files removed.
        """
        if faults.fire("journal.compact") == "crash":
            # Crash between checkpoint and compaction: the redundant
            # segments must be skipped (not re-applied) on recovery.
            faults.crash()
        if self._journal is not None and self._journal_bytes > 0:
            self._open_segment()  # seal the active segment before judging it
        paths = self._segment_paths()
        removed = 0
        for i, path in enumerate(paths):
            # The last entry a file can contain is bounded by the next
            # file's first seq (files are append-ordered and immutable
            # once sealed).  The newest file is never deleted.
            if i + 1 >= len(paths):
                break
            next_first = _segment_first_seq(paths[i + 1])
            if next_first is None or next_first > through_seq + 1:
                break
            try:
                path.unlink()
                removed += 1
            except OSError:
                break
        if removed or not paths:
            self.compacted_through = max(self.compacted_through, through_seq)
        self.segments_compacted += removed
        return removed

    def reset_to_snapshot(self, forecaster: QueueForecaster, seq: int) -> None:
        """Adopt a replicated full snapshot: checkpoint it, drop old segments.

        A follower too far behind the primary's compaction horizon cannot
        tail the journal; it installs the streamed snapshot as its new
        baseline and resumes entry-by-entry replication from ``seq``.
        """
        old_paths = self._segment_paths()
        self.seq = seq
        self._write_checkpoint(forecaster, seq)
        for path in old_paths:
            try:
                path.unlink()
            except OSError:
                pass
        self.compacted_through = seq
        self.events_since_checkpoint = 0
        self._open_segment()

    def close(self) -> None:
        if self._journal is not None:
            self._journal.close()
            self._journal = None
