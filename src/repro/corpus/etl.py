"""Streaming, constant-memory ETL from raw trace logs into corpus stores.

Two source adapters normalize very different raw schemas into the same
six-column event form (submit, wait, runtime, procs, queue-id, class-id):

``swf``
    Parallel Workloads Archive Standard Workload Format, plain or gzip.
    Header comments are parsed for queue-number -> name mappings
    (``; Queue: <n> <name>``); when the file matches a log cataloged in
    :mod:`repro.workloads.archive` (by ``--archive-key`` or filename),
    the registry's queue map seeds the mapping.  Cleaning per SWF
    convention: negative submit/wait, zero-processor jobs, and clock-skew
    records (submit jumping more than a tolerance behind the running
    maximum) are dropped and *counted* — every drop appears in the
    manifest's ledger, never silently.  Interactive/partial records
    (status -1, truncated optional fields) are kept.

``alibaba``
    Alibaba cluster-trace-gpu-v2020 job CSVs (``submit_time``,
    ``start_time``, ``status``, ``inst_num``, ``plan_gpu``, ``gpu_type``
    columns; extra columns ignored).  Wait is ``start - submit``; width
    is ``inst_num * ceil(plan_gpu / 100)`` (GPU-centishare convention);
    queue is the GPU type.  Non-``Terminated`` rows are dropped as
    ``status``; unstarted rows as ``incomplete``.

Both adapters stream line-at-a-time and flush fixed-size chunks into a
:class:`~repro.corpus.store.ColumnWriter`, so peak memory is O(chunk)
regardless of log size, and the source file's SHA-256 is computed on the
compressed bytes as they are read (no second pass).  The
``corpus.ingest`` fault hook fires once per flushed chunk and the
``corpus.finalize`` hook brackets the atomic directory promotion, which
is how the fault harness proves a killed ingest leaves either no store
or a complete one.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import io
import math
import os
import time
from collections import Counter
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.runtime import faults
from repro.workloads.bins import bin_index
from repro.workloads.swf import SWF_FIELD_COUNT
from repro.corpus.store import ColumnWriter, CorpusError, CorpusStore

__all__ = [
    "IngestStats",
    "detect_format",
    "ingest",
]

DEFAULT_CHUNK_ROWS = 65_536
DEFAULT_CLOCK_SKEW_TOLERANCE = 3_600.0

#: SWF field indices (0-based) used by the adapter.
_F_SUBMIT, _F_WAIT, _F_RUN, _F_ALLOC = 1, 2, 3, 4
_F_REQ, _F_STATUS, _F_QUEUE = 7, 10, 14
_MIN_SWF_FIELDS = 5  # through allocated procs; later fields default to -1


@dataclass
class IngestStats:
    """What one ETL run read, kept, and dropped."""

    source: str
    fmt: str
    read: int = 0
    kept: int = 0
    drops: Counter = dataclass_field(default_factory=Counter)
    seconds: float = 0.0
    source_bytes: int = 0
    source_sha256: str = ""

    @property
    def rows_per_s(self) -> float:
        return self.read / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "format": self.fmt,
            "read": self.read,
            "kept": self.kept,
            "drops": dict(sorted(self.drops.items())),
            "seconds": round(self.seconds, 3),
            "rows_per_s": round(self.rows_per_s, 1),
        }


class _HashingRaw(io.RawIOBase):
    """Raw reader that feeds every byte it serves into a hash."""

    def __init__(self, raw: io.RawIOBase, hasher: "hashlib._Hash") -> None:
        self._raw = raw
        self._hasher = hasher
        self.bytes_read = 0

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        n = self._raw.readinto(b)
        if n:
            self._hasher.update(bytes(b[:n]))
            self.bytes_read += n
        return n or 0

    def close(self) -> None:
        self._raw.close()
        super().close()


def _open_text(path: Path, hasher: "hashlib._Hash") -> TextIO:
    """Open plain or gzip text, hashing the *compressed* bytes read."""
    raw = io.BufferedReader(_HashingRaw(open(path, "rb"), hasher))
    if path.name.endswith(".gz"):
        return io.TextIOWrapper(
            gzip.GzipFile(fileobj=raw, mode="rb"), encoding="utf-8",
            errors="replace",
        )
    return io.TextIOWrapper(raw, encoding="utf-8", errors="replace")


def detect_format(path: Union[str, Path]) -> str:
    """Guess the adapter from the file name (``swf`` or ``alibaba``)."""
    name = Path(path).name.lower()
    stem = name[:-3] if name.endswith(".gz") else name
    if stem.endswith(".swf"):
        return "swf"
    if stem.endswith(".csv"):
        return "alibaba"
    raise CorpusError(
        f"cannot infer format of {name!r}; pass fmt='swf' or 'alibaba'")


class _QueueInterner:
    """Stable queue-name -> dense-id assignment (first appearance order).

    Name resolution order: explicit seed (user override / archive
    registry), then ``fallback`` — a *live* dict the SWF adapter fills
    from ``; Queue:`` header lines, which always precede data rows —
    then a ``queue-<n>`` default.
    """

    def __init__(
        self,
        seeded: Optional[Dict[int, str]] = None,
        fallback: Optional[Dict[int, str]] = None,
    ) -> None:
        self.number_names: Dict[int, str] = dict(seeded or {})
        self.fallback: Dict[int, str] = fallback if fallback is not None else {}
        self.ids: Dict[str, int] = {}

    def id_for(self, name: str) -> int:
        qid = self.ids.get(name)
        if qid is None:
            qid = len(self.ids)
            self.ids[name] = qid
        return qid

    def name_for_number(self, number: int) -> str:
        name = self.number_names.get(number)
        if name is None:
            name = self.fallback.get(number, f"queue-{number}")
        return name

    def id_names(self) -> Dict[int, str]:
        return {qid: name for name, qid in self.ids.items()}


class _ChunkBuffer:
    """Accumulates normalized rows; drains as a column chunk dict."""

    def __init__(self) -> None:
        self.submit: List[float] = []
        self.wait: List[float] = []
        self.runtime: List[float] = []
        self.procs: List[int] = []
        self.queue: List[int] = []
        self.cls: List[int] = []

    def __len__(self) -> int:
        return len(self.submit)

    def add(self, submit: float, wait: float, runtime: float, procs: int,
            queue_id: int) -> None:
        self.submit.append(submit)
        self.wait.append(wait)
        self.runtime.append(runtime)
        self.procs.append(procs)
        self.queue.append(queue_id)
        self.cls.append(bin_index(procs))

    def drain(self) -> Dict[str, np.ndarray]:
        chunk = {
            "submit": np.asarray(self.submit, dtype=np.float64),
            "wait": np.asarray(self.wait, dtype=np.float64),
            "runtime": np.asarray(self.runtime, dtype=np.float64),
            "procs": np.asarray(self.procs, dtype=np.int32),
            "queue": np.asarray(self.queue, dtype=np.int32),
            "class": np.asarray(self.cls, dtype=np.int32),
        }
        self.__init__()
        return chunk


def _fire_ingest_hook() -> None:
    action = faults.fire("corpus.ingest")
    if action == "crash":
        faults.crash()
    elif action == "raise":
        raise RuntimeError("injected corpus.ingest fault")


def _fire_finalize_hook() -> None:
    action = faults.fire("corpus.finalize")
    if action in ("crash", "crash-before"):
        faults.crash()
    elif action == "raise":
        raise RuntimeError("injected corpus.finalize fault")


def _parse_swf_header_line(line: str, header: Dict[str, Any]) -> None:
    body = line.lstrip(";").strip()
    if not body or ":" not in body:
        return
    key, _, value = body.partition(":")
    key = key.strip().lower()
    value = value.strip()
    if key == "queue":
        parts = value.split(None, 1)
        try:
            number = int(parts[0])
        except (ValueError, IndexError):
            return
        name = parts[1].strip() if len(parts) > 1 else f"queue-{number}"
        header.setdefault("queues", {})[number] = name
    elif key in ("maxprocs", "maxjobs", "unixstarttime"):
        try:
            header[key] = int(value.split()[0])
        except (ValueError, IndexError):
            pass
    elif key == "computer":
        header[key] = value


def _swf_rows(
    handle: TextIO,
    interner: _QueueInterner,
    stats: IngestStats,
    header: Dict[str, Any],
    skew_tolerance: float,
) -> Iterator[Tuple[float, float, float, int, int]]:
    """Parse + clean SWF lines, yielding normalized rows."""
    max_submit = -math.inf
    for line in handle:
        line = line.strip()
        if not line:
            continue
        if line.startswith(";"):
            _parse_swf_header_line(line, header)
            continue
        stats.read += 1
        fields = line.split()
        if len(fields) < _MIN_SWF_FIELDS:
            stats.drops["malformed"] += 1
            continue
        try:
            submit = float(fields[_F_SUBMIT])
            wait = float(fields[_F_WAIT])
            runtime = float(fields[_F_RUN])
            alloc = int(float(fields[_F_ALLOC]))
            req = (int(float(fields[_F_REQ]))
                   if len(fields) > _F_REQ else -1)
            queue_no = (int(float(fields[_F_QUEUE]))
                        if len(fields) > _F_QUEUE else -1)
        except ValueError:
            stats.drops["malformed"] += 1
            continue
        if submit < 0:
            stats.drops["negative_submit"] += 1
            continue
        if wait < 0:
            stats.drops["negative_wait"] += 1
            continue
        procs = req if req > 0 else alloc
        if procs < 1:
            stats.drops["zero_procs"] += 1
            continue
        if submit < max_submit - skew_tolerance:
            stats.drops["clock_skew"] += 1
            continue
        max_submit = max(max_submit, submit)
        qname = interner.name_for_number(queue_no)
        yield (submit, wait, max(runtime, -1.0), procs,
               interner.id_for(qname))


def _alibaba_rows(
    handle: TextIO,
    interner: _QueueInterner,
    stats: IngestStats,
    header: Dict[str, Any],
    skew_tolerance: float,
) -> Iterator[Tuple[float, float, float, int, int]]:
    """Parse + clean Alibaba cluster-trace-gpu-v2020 job CSV rows."""
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        return
    cols = {c.strip().lower(): c for c in reader.fieldnames}

    def col(row: Dict[str, str], *names: str) -> str:
        for n in names:
            c = cols.get(n)
            if c is not None:
                v = row.get(c)
                if v is not None and v.strip():
                    return v.strip()
        return ""

    header["computer"] = "Alibaba cluster-trace-gpu-v2020"
    max_submit = -math.inf
    for row in reader:
        stats.read += 1
        status = col(row, "status", "state")
        if status and status.lower() != "terminated":
            stats.drops["status"] += 1
            continue
        s_submit = col(row, "submit_time", "submit")
        s_start = col(row, "start_time", "start")
        if not s_submit or not s_start:
            stats.drops["incomplete"] += 1
            continue
        try:
            submit = float(s_submit)
            start = float(s_start)
            end = float(col(row, "end_time", "end") or "-1")
            inst = int(float(col(row, "inst_num", "inst") or "1"))
            plan_gpu = float(col(row, "plan_gpu") or "0")
        except ValueError:
            stats.drops["malformed"] += 1
            continue
        if submit < 0:
            stats.drops["negative_submit"] += 1
            continue
        wait = start - submit
        if wait < 0:
            stats.drops["negative_wait"] += 1
            continue
        procs = max(inst, 1) * max(int(math.ceil(plan_gpu / 100.0)), 1)
        if procs < 1:
            stats.drops["zero_procs"] += 1
            continue
        if submit < max_submit - skew_tolerance:
            stats.drops["clock_skew"] += 1
            continue
        max_submit = max(max_submit, submit)
        runtime = end - start if end >= start else -1.0
        qname = col(row, "gpu_type", "queue", "gpu_type_spec") or "gpu"
        yield submit, wait, runtime, procs, interner.id_for(qname)


_ADAPTERS = {"swf": _swf_rows, "alibaba": _alibaba_rows}


def _archive_queue_map(path: Path, archive_key: Optional[str]) -> Dict[int, str]:
    """Queue map from the archive registry (explicit key or filename)."""
    from repro.workloads import archive as archive_mod

    log = None
    if archive_key:
        log = archive_mod.archive_log(archive_key)
    else:
        for candidate in archive_mod.ARCHIVE_LOGS:
            if candidate.filename == path.name:
                log = candidate
                break
    return dict(log.queue_names) if log else {}


def ingest(
    source: Union[str, Path],
    dest: Union[str, Path],
    *,
    site: Optional[str] = None,
    fmt: str = "auto",
    archive_key: Optional[str] = None,
    queue_names: Optional[Dict[int, str]] = None,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    clock_skew_tolerance: float = DEFAULT_CLOCK_SKEW_TOLERANCE,
    force: bool = False,
) -> Tuple[CorpusStore, IngestStats]:
    """Stream one raw log into a columnar site store.

    Returns the opened :class:`CorpusStore` plus :class:`IngestStats`.
    Raises :class:`CorpusError` when ``dest`` exists and ``force`` is
    false, or on an unreadable source.  The write path is atomic: the
    store appears at ``dest`` only after a complete, sorted, manifested
    directory has been built.
    """
    source = Path(source)
    dest = Path(dest)
    if not source.is_file():
        raise CorpusError(f"source log not found: {source}")
    if fmt == "auto":
        fmt = detect_format(source)
    if fmt not in _ADAPTERS:
        raise CorpusError(f"unknown format {fmt!r}; have {sorted(_ADAPTERS)}")
    if dest.exists() and not force:
        raise CorpusError(f"store already exists: {dest} (use force/--force)")
    site = site or archive_key or source.name.split(".")[0]

    seeded = dict(_archive_queue_map(source, archive_key))
    seeded.update(queue_names or {})
    stats = IngestStats(source=str(source), fmt=fmt)
    header: Dict[str, Any] = {"queues": {}}
    interner = _QueueInterner(seeded, fallback=header["queues"])
    hasher = hashlib.sha256()
    started = time.perf_counter()

    writer = ColumnWriter(dest, site)
    try:
        handle = _open_text(source, hasher)
        try:
            buffer = _ChunkBuffer()
            rows = _ADAPTERS[fmt](
                handle, interner, stats, header, clock_skew_tolerance
            )
            for row in rows:
                buffer.add(*row)
                if len(buffer) >= chunk_rows:
                    writer.append(buffer.drain())
                    _fire_ingest_hook()
            if len(buffer):
                writer.append(buffer.drain())
                _fire_ingest_hook()
        finally:
            handle.close()
        stats.kept = writer.rows
        stats.seconds = time.perf_counter() - started
        stats.source_bytes = source.stat().st_size
        stats.source_sha256 = hasher.hexdigest()
        from repro.workloads.bins import PROC_BINS, bin_label

        writer.finalize(
            source={
                "name": source.name,
                "bytes": stats.source_bytes,
                "sha256": stats.source_sha256,
                "format": fmt,
                "archive_key": archive_key,
                "header": {k: v for k, v in header.items() if k != "queues"},
            },
            etl=stats.as_dict(),
            queue_names=interner.id_names(),
            class_labels=[bin_label(b) for b in PROC_BINS],
            force=force,
            _pre_replace_hook=_fire_finalize_hook,
        )
    except BaseException:
        writer.abort()
        raise
    # A crash-after-replace fault fires here: the store is already
    # complete and valid on disk, proving replace-then-crash safety.
    action = faults.fire("corpus.finalize.after")
    if action == "crash":
        faults.crash()
    return CorpusStore(dest), stats
