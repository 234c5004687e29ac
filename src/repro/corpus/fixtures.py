"""Deterministic archive-shaped SWF fixture generation.

Real Parallel Workloads Archive logs cannot be committed to the repository
(hundreds of megabytes, external licensing), so the corpus subsystem's CI
path runs on *synthetic* logs that are archive-shaped: multi-queue SWF
files with header metadata (``MaxProcs``, ``UnixStartTime``, per-number
queue names), bursty diurnal arrivals, AR(1)-correlated log-normal waits
per queue (the regime the conformance harness proves BMBP covers), wide
multiserver processor requests, and a seeded sprinkle of exactly the
anomalies the ETL cleaning pass exists for:

* ``negative_wait`` — wait recorded as -1 (killed before start);
* ``zero_procs`` — allocated 0 processors, requested missing;
* ``clock_skew`` — a submit timestamp jumping days backwards mid-log.

Anomalies are *extra* records: the generator returns the exact per-kind
counts it injected, and :func:`expected_drops` turns them into the ETL
drop ledger record for record.  A fraction of otherwise-valid records is
written *partial* (truncated after the queue field, status -1) to
exercise the parser's interactive/partial-record tolerance.

Generation streams in fixed-size chunks (constant memory at any log size)
and writes gzip with ``mtime=0``, so one (seed, parameters) pair produces
byte-identical files across runs and machines.
"""

from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.corpus.etl import DEFAULT_CLOCK_SKEW_TOLERANCE

__all__ = [
    "FIXTURE_QUEUES",
    "FixtureQueue",
    "FixtureSummary",
    "generate_corpus_fixture",
]

#: Rows generated per streaming chunk (fixed so a seed is reproducible).
_CHUNK = 65_536

#: One injected anomaly per this many valid records, per anomaly kind.
_ANOMALY_EVERY = 997

#: One partial (truncated, status -1) record per this many valid records.
_PARTIAL_EVERY = 211

#: Seconds a clock-skew anomaly jumps backwards (far past any tolerance).
_SKEW_SECONDS = 2 * 86_400.0


@dataclass(frozen=True)
class FixtureQueue:
    """Wait-process parameters for one synthetic queue."""

    name: str
    number: int  # SWF queue number (1-based, as archive headers use)
    mu: float  # log-wait location
    sigma: float  # log-wait scale
    rho: float  # AR(1) coefficient of the log-wait stream
    procs: Tuple[int, ...]  # requested-processor choices
    procs_weights: Tuple[float, ...]
    weight: float  # share of job mass


#: An SDSC-SP2-shaped queue mix: four queues of very different delay
#: regimes, including a wide multiserver queue whose waits are the longest
#: (width-dependent waiting, arXiv 2109.05343's regime).
FIXTURE_QUEUES: Tuple[FixtureQueue, ...] = (
    FixtureQueue("express", 1, 3.2, 0.9, 0.20, (1, 2, 4), (0.6, 0.25, 0.15), 0.30),
    FixtureQueue("normal", 2, 4.4, 1.0, 0.30, (4, 8, 16), (0.45, 0.35, 0.2), 0.40),
    FixtureQueue("low", 3, 5.4, 1.1, 0.35, (1, 8, 16, 32), (0.4, 0.3, 0.2, 0.1), 0.18),
    FixtureQueue("wide", 4, 6.0, 1.2, 0.25, (64, 128, 256), (0.5, 0.35, 0.15), 0.12),
)


@dataclass
class FixtureSummary:
    """What one generation run wrote (and what ETL should make of it)."""

    path: str
    jobs: int  # valid records written
    records: int  # total records written, anomalies included
    queues: Dict[str, int] = field(default_factory=dict)
    anomalies: Dict[str, int] = field(default_factory=dict)
    # Per clock-skew record: how far its submit sits behind the latest
    # valid submit before it (the clamp at 0 can make this small).
    skew_jumps: List[float] = field(default_factory=list)
    partial_records: int = 0
    duration_seconds: float = 0.0
    max_procs: int = 0
    seed: int = 0


def _ar1_step(
    eps: np.ndarray, rho: float, state: float
) -> Tuple[np.ndarray, float]:
    """Advance a unit-marginal-variance AR(1) stream by one chunk.

    Uses ``scipy.signal.lfilter`` (one C pass) with carried filter state so
    chunking never changes the sequence.
    """
    from scipy.signal import lfilter

    scale = math.sqrt(1.0 - rho * rho)
    out, zf = lfilter([scale], [1.0, -rho], eps, zi=np.array([rho * state]))
    return out, float(out[-1])


def _format_rows(
    buffer: io.StringIO,
    job_numbers: np.ndarray,
    submits: np.ndarray,
    waits: np.ndarray,
    runtimes: np.ndarray,
    procs: np.ndarray,
    queue_numbers: np.ndarray,
    statuses: np.ndarray,
    partial: np.ndarray,
) -> None:
    """Append one chunk of SWF data lines to the buffer."""
    for i in range(job_numbers.size):
        p = int(procs[i])
        head = (
            f"{job_numbers[i]} {int(submits[i])} {int(waits[i])} "
            f"{int(runtimes[i])} {p} -1 -1 {p} {int(runtimes[i] * 2)} -1 "
            f"{int(statuses[i])} {1 + job_numbers[i] % 97} 1 -1 {int(queue_numbers[i])}"
        )
        if partial[i]:
            # Interactive/partial record: truncated after the queue field.
            buffer.write(head + "\n")
        else:
            buffer.write(head + " 1 -1 -1\n")


def generate_corpus_fixture(
    path: Union[str, Path],
    jobs: int = 250_000,
    seed: int = 20260808,
    queues: Sequence[FixtureQueue] = FIXTURE_QUEUES,
    base_gap: float = 45.0,
    anomalies: bool = True,
    machine: str = "BMBP synthetic archive fixture",
    max_procs: int = 416,
) -> FixtureSummary:
    """Write a deterministic archive-shaped ``.swf.gz`` log.

    ``jobs`` counts *valid* records; with ``anomalies=True`` a further
    ~0.3% of records carry the cleanable defects listed in the module
    docstring.  Returns a :class:`FixtureSummary` whose ``anomalies``
    ledger is exactly what a correct ETL run must report dropping.
    """
    if jobs < len(queues) * 10:
        raise ValueError(f"jobs={jobs} too small for {len(queues)} queues")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    summary = FixtureSummary(
        path=str(path), jobs=jobs, records=0, seed=seed, max_procs=max_procs
    )
    summary.queues = {q.name: 0 for q in queues}
    summary.anomalies = {"negative_wait": 0, "zero_procs": 0, "clock_skew": 0}
    weights = np.array([q.weight for q in queues], dtype=float)
    weights /= weights.sum()
    ar_state = {q.name: float(rng.standard_normal()) for q in queues}

    header = [
        "; SWF fixture generated by repro.corpus.fixtures (deterministic)",
        f"; Computer: {machine}",
        f"; MaxJobs: {jobs}",
        f"; MaxProcs: {max_procs}",
        "; UnixStartTime: 0",
        "; Note: synthetic log; waits are AR(1) log-normal per queue",
    ]
    for q in queues:
        header.append(f"; Queue: {q.number} {q.name}")

    raw = open(path, "wb")
    # filename="" keeps the path out of the gzip header: byte-identical
    # output for the same (seed, parameters) regardless of destination.
    gz = gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0)
    text = io.TextIOWrapper(gz, encoding="ascii", newline="")
    now = 0.0
    written = 0
    job_number = 0
    try:
        text.write("\n".join(header) + "\n")
        while written < jobs:
            n = min(_CHUNK, jobs - written)
            # Bursty diurnal arrivals: gamma interarrivals modulated by a
            # day-cycle factor evaluated at the running clock.
            gaps = rng.gamma(shape=0.4, scale=base_gap / 0.4, size=n)
            t_nominal = now + np.cumsum(gaps)
            gaps *= 1.0 + 0.5 * np.sin(2.0 * math.pi * t_nominal / 86_400.0)
            submits = now + np.cumsum(np.maximum(gaps, 0.05))
            now = float(submits[-1])

            queue_idx = rng.choice(len(queues), size=n, p=weights)
            waits = np.empty(n)
            procs = np.empty(n, dtype=np.int64)
            queue_numbers = np.empty(n, dtype=np.int64)
            for k, q in enumerate(queues):
                mask = queue_idx == k
                m = int(mask.sum())
                if not m:
                    continue
                x, ar_state[q.name] = _ar1_step(
                    rng.standard_normal(m), q.rho, ar_state[q.name]
                )
                waits[mask] = np.maximum(np.rint(np.exp(q.mu + q.sigma * x)), 0.0)
                pw = np.array(q.procs_weights) / sum(q.procs_weights)
                procs[mask] = rng.choice(q.procs, size=m, p=pw)
                queue_numbers[mask] = q.number
                summary.queues[q.name] += m
            runtimes = np.maximum(
                np.rint(np.exp(5.0 + 1.2 * rng.standard_normal(n))), 1.0
            )
            statuses = np.ones(n, dtype=np.int64)
            job_numbers = np.arange(job_number + 1, job_number + n + 1)
            # Partial/interactive texture on a deterministic comb of rows.
            partial = (job_numbers % _PARTIAL_EVERY) == 0
            statuses[partial] = -1
            summary.partial_records += int(partial.sum())

            buffer = io.StringIO()
            if not anomalies:
                _format_rows(
                    buffer, job_numbers, submits, waits, runtimes, procs,
                    queue_numbers, statuses, partial,
                )
            else:
                # Interleave anomaly records after deterministic positions.
                anomaly_kind = np.full(n, -1, dtype=np.int64)
                for kind, offset in (("negative_wait", 0), ("zero_procs", 331),
                                     ("clock_skew", 661)):
                    hit = (job_numbers % _ANOMALY_EVERY) == offset
                    anomaly_kind[hit] = ("negative_wait", "zero_procs",
                                         "clock_skew").index(kind)
                cuts = np.flatnonzero(anomaly_kind >= 0)
                prev = 0
                for cut in np.append(cuts, n - 1):
                    stop = int(cut) + 1
                    sl = slice(prev, stop)
                    _format_rows(
                        buffer, job_numbers[sl], submits[sl], waits[sl],
                        runtimes[sl], procs[sl], queue_numbers[sl],
                        statuses[sl], partial[sl],
                    )
                    prev = stop
                    if stop - 1 != int(cut) or anomaly_kind[cut] < 0:
                        continue
                    kind = int(anomaly_kind[cut])
                    t_anom = submits[cut]
                    qn = int(queue_numbers[cut])
                    if kind == 0:  # negative wait
                        line = (f"0 {int(t_anom) + 1} -1 -1 4 -1 -1 4 -1 -1 "
                                f"5 1 1 -1 {qn} 1 -1 -1")
                        summary.anomalies["negative_wait"] += 1
                    elif kind == 1:  # zero allocated procs, requested missing
                        line = (f"0 {int(t_anom) + 1} 30 60 0 -1 -1 -1 -1 -1 "
                                f"1 1 1 -1 {qn} 1 -1 -1")
                        summary.anomalies["zero_procs"] += 1
                    else:  # clock skew: submit jumps days backwards
                        skewed = max(int(t_anom - _SKEW_SECONDS), 0)
                        line = (f"0 {skewed} 45 120 4 -1 -1 4 -1 -1 "
                                f"1 1 1 -1 {qn} 1 -1 -1")
                        summary.anomalies["clock_skew"] += 1
                        # Submits rise, so the row just written holds the
                        # latest valid submit.
                        summary.skew_jumps.append(float(int(t_anom) - skewed))
                    buffer.write(line + "\n")
            text.write(buffer.getvalue())
            written += n
            job_number += n
    finally:
        text.close()  # flushes + closes gz, which leaves its fileobj open
        raw.close()
    summary.records = jobs + sum(summary.anomalies.values())
    summary.duration_seconds = now
    return summary


def fixture_queue_names(
    queues: Sequence[FixtureQueue] = FIXTURE_QUEUES,
) -> Dict[int, str]:
    """SWF queue-number -> name mapping of the fixture's header."""
    return {q.number: q.name for q in queues}


def expected_drops(summary: FixtureSummary) -> Dict[str, int]:
    """The drop ledger a correct ETL run over ``summary`` must produce.

    A clock-skew record whose submit was clamped at 0 early in the log can
    sit within the ETL's skew tolerance of the latest submit; the ETL then
    rightly keeps it, so it is not a drop.
    """
    counts = dict(summary.anomalies)
    if counts.get("clock_skew"):
        counts["clock_skew"] = sum(
            jump > DEFAULT_CLOCK_SKEW_TOLERANCE for jump in summary.skew_jumps
        )
    return {kind: count for kind, count in counts.items() if count}
