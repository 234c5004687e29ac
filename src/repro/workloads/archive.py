"""Registry of public Parallel Workloads Archive logs.

The paper's original logs are proprietary, but the Parallel Workloads
Archive (https://www.cs.huji.ac.il/labs/parallel/workload/) publishes SWF
logs from the same machine families — including the *actual* SDSC Paragon
1995/1996 and SDSC SP2 machines from the paper's Table 1, and the LANL
Origin 2000 that matches lanl/O2K.  This module records the metadata needed
to run the reproduction on those logs once downloaded: file names, machine
sizes, and the queue-number -> queue-name mappings documented in each log's
header.

Nothing here touches the network; point :func:`load_archive_log` at a
downloaded ``.swf``/``.swf.gz`` file.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.workloads.swf import load_swf
from repro.workloads.trace import Trace

__all__ = [
    "ARCHIVE_LOGS",
    "ArchiveLog",
    "archive_log",
    "file_sha256",
    "load_archive_log",
    "main",
    "verify_archive_file",
]

#: Base URL of the Parallel Workloads Archive log directory tree.
ARCHIVE_BASE_URL = "https://www.cs.huji.ac.il/labs/parallel/workload"


@dataclass(frozen=True)
class ArchiveLog:
    """Metadata for one public archive log.

    ``queue_names`` comes from the log's SWF header ("Queue: ..." notes);
    ``paper_overlap`` names the Table 1 machine the log corresponds to (or
    is closest to), for cross-referencing results.  ``url`` is the
    download location under the archive's site; ``sha256`` pins the
    expected digest of the compressed file — ``None`` means unpinned
    (:func:`verify_archive_file` then reports the computed digest so it
    can be pinned after a trusted download, instead of inventing one).
    """

    key: str
    filename: str
    machine: str
    procs: int
    period: str
    jobs: int
    queue_names: Dict[int, str] = field(default_factory=dict)
    paper_overlap: Optional[str] = None
    notes: str = ""
    url: Optional[str] = None
    sha256: Optional[str] = None


#: Archive logs from the paper's machine families.  Job counts are the
#: archive's cleaned-log figures; they differ from Table 1 because the
#: paper's site logs covered different windows and queue subsets.
ARCHIVE_LOGS: Tuple[ArchiveLog, ...] = (
    ArchiveLog(
        key="sdsc-par95",
        filename="SDSC-Par-1995-3.1-cln.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_sdsc_par/SDSC-Par-1995-3.1-cln.swf.gz",
        machine="SDSC Intel Paragon",
        procs=416,
        period="1995",
        jobs=53970,
        queue_names={
            1: "q16s", 2: "q32s", 3: "q64s", 4: "q128s", 5: "q256s",
            6: "q16m", 7: "q32m", 8: "q64m", 9: "q128m", 10: "q256m",
            11: "q16l", 12: "q32l", 13: "q64l", 14: "q128l", 15: "q256l",
            16: "q64in", 17: "q256in", 18: "standby",
        },
        paper_overlap="paragon",
        notes="The same machine and year as the paper's SDSC/Paragon rows.",
    ),
    ArchiveLog(
        key="sdsc-par96",
        filename="SDSC-Par-1996-3.1-cln.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_sdsc_par/SDSC-Par-1996-3.1-cln.swf.gz",
        machine="SDSC Intel Paragon",
        procs=416,
        period="1996",
        jobs=32135,
        queue_names={
            1: "q16s", 2: "q32s", 3: "q64s", 4: "q128s", 5: "q256s",
            6: "q16m", 7: "q32m", 8: "q64m", 9: "q128m", 10: "q256m",
            11: "q16l", 12: "q32l", 13: "q64l", 14: "q128l", 15: "q256l",
            16: "q64in", 17: "q256in", 18: "standby",
        },
        paper_overlap="paragon",
    ),
    ArchiveLog(
        key="sdsc-sp2",
        filename="SDSC-SP2-1998-4.2-cln.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_sdsc_sp2/SDSC-SP2-1998-4.2-cln.swf.gz",
        machine="SDSC IBM SP2",
        procs=128,
        period="4/1998 - 4/2000",
        jobs=59725,
        queue_names={1: "express", 2: "high", 3: "normal", 4: "low"},
        paper_overlap="sdsc",
        notes="The same machine and window as the paper's SDSC/SP rows.",
    ),
    ArchiveLog(
        key="lanl-o2k",
        filename="LANL-O2K-1999-2.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_lanl_o2k/LANL-O2K-1999-2.swf.gz",
        machine="LANL Origin 2000 (Nirvana)",
        procs=2048,
        period="11/1999 - 4/2000",
        jobs=121989,
        # The archive log exposes partition/host rather than the paper's
        # scheduler queues; queue numbers are the archive's.
        queue_names={},
        paper_overlap="lanl",
        notes="Same machine and period as the paper's LANL/O2K rows.",
    ),
    ArchiveLog(
        key="ctc-sp2",
        filename="CTC-SP2-1996-3.1-cln.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_ctc_sp2/CTC-SP2-1996-3.1-cln.swf.gz",
        machine="Cornell Theory Center IBM SP2",
        procs=430,
        period="6/1996 - 5/1997",
        jobs=77222,
        queue_names={},
        paper_overlap=None,
        notes="Same machine family as the paper's NERSC/SDSC SP rows.",
    ),
    ArchiveLog(
        key="kth-sp2",
        filename="KTH-SP2-1996-2.1-cln.swf.gz",
        url=f"{ARCHIVE_BASE_URL}/l_kth_sp2/KTH-SP2-1996-2.1-cln.swf.gz",
        machine="KTH IBM SP2",
        procs=100,
        period="9/1996 - 8/1997",
        jobs=28489,
        queue_names={},
        paper_overlap=None,
    ),
)

_BY_KEY = {log.key: log for log in ARCHIVE_LOGS}


def archive_log(key: str) -> ArchiveLog:
    """Look up an archive log's metadata by its short key."""
    try:
        return _BY_KEY[key]
    except KeyError:
        available = ", ".join(sorted(_BY_KEY))
        raise KeyError(f"unknown archive log {key!r}; known: {available}") from None


def load_archive_log(key: str, path: Union[str, Path]) -> Trace:
    """Load a downloaded archive file with its registered queue names.

    ``path`` may be the file itself or a directory containing the log under
    its canonical filename.
    """
    log = archive_log(key)
    path = Path(path)
    if path.is_dir():
        path = path / log.filename
    if not path.exists():
        raise FileNotFoundError(
            f"archive log not found at {path}; download {log.filename} from "
            "the Parallel Workloads Archive first"
        )
    return load_swf(path, queue_names=log.queue_names or None, name=log.key)


def describe_archive() -> str:
    """Human-readable summary of the registered logs."""
    lines = ["Public archive logs usable with this reproduction:", ""]
    for log in ARCHIVE_LOGS:
        overlap = f" (paper machine: {log.paper_overlap})" if log.paper_overlap else ""
        lines.append(
            f"  {log.key:11s} {log.machine}, {log.procs} procs, {log.period}, "
            f"~{log.jobs} jobs{overlap}"
        )
        if log.url:
            lines.append(f"  {'':11s} {log.url}")
        if log.notes:
            lines.append(f"  {'':11s} {log.notes}")
    return "\n".join(lines)


def file_sha256(path: Union[str, Path], chunk: int = 1 << 20) -> str:
    """SHA-256 of a file, streamed in chunks (constant memory)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def _scan_swf_header(path: Path) -> Dict[str, Any]:
    """Read an SWF file's leading comment block (streamed, header only).

    Returns ``{"max_procs", "max_jobs", "unix_start_time", "computer",
    "queues": {number: name}}`` with absent keys omitted; stops at the
    first data line, so even multi-gigabyte logs cost a few kilobytes.
    """
    header: Dict[str, Any] = {"queues": {}}
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", errors="replace") as handle:  # type: ignore[arg-type]
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if not stripped.startswith(";"):
                break
            body = stripped.lstrip(";").strip()
            key, _, value = body.partition(":")
            key = key.strip().lower()
            value = value.strip()
            if key == "queue":
                parts = value.split(None, 1)
                try:
                    number = int(parts[0])
                except (ValueError, IndexError):
                    continue
                if len(parts) > 1:
                    header["queues"][number] = parts[1].strip()
            elif key in ("maxprocs", "maxjobs", "unixstarttime"):
                try:
                    header[{"maxprocs": "max_procs", "maxjobs": "max_jobs",
                            "unixstarttime": "unix_start_time"}[key]] = int(
                        value.split()[0])
                except (ValueError, IndexError):
                    pass
            elif key == "computer":
                header["computer"] = value
    return header


def verify_archive_file(
    path: Union[str, Path], key: Optional[str] = None
) -> Dict[str, Any]:
    """Check a downloaded log against the registry (``archive verify``).

    Computes the file's SHA-256 and scans its SWF header, then compares
    both with the registered metadata for ``key`` (inferred from the
    filename when omitted).  Returns a report dict::

        {"path", "key", "sha256", "checksum": "match|mismatch|unpinned",
         "header": {...}, "warnings": [...], "ok": bool}

    ``ok`` is False only on hard evidence of the wrong file — a pinned
    checksum mismatch.  Metadata disagreements (MaxProcs vs the registry's
    machine size, queue-name divergence, job counts off by more than 10%)
    are *warnings*: archive logs get re-released with cleaning revisions,
    so the caller should read them, not die on them.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such log file: {path}")
    log: Optional[ArchiveLog] = None
    if key is not None:
        log = archive_log(key)
    else:
        for candidate in ARCHIVE_LOGS:
            if candidate.filename == path.name:
                log = candidate
                break
    digest = file_sha256(path)
    report: Dict[str, Any] = {
        "path": str(path),
        "key": log.key if log else None,
        "sha256": digest,
        "checksum": "unpinned",
        "warnings": [],
        "ok": True,
    }
    warnings: List[str] = report["warnings"]
    if log is None:
        warnings.append(
            f"{path.name} matches no registered archive log; header checks "
            "only"
        )
    elif log.sha256:
        if digest == log.sha256:
            report["checksum"] = "match"
        else:
            report["checksum"] = "mismatch"
            report["ok"] = False
            warnings.append(
                f"SHA-256 mismatch: file {digest[:16]}… != registered "
                f"{log.sha256[:16]}… — wrong or corrupted download"
            )
    else:
        warnings.append(
            "no registered checksum for this log; computed digest reported "
            "so it can be pinned after a trusted download"
        )
    header = _scan_swf_header(path)
    report["header"] = header
    if log is not None:
        max_procs = header.get("max_procs")
        if max_procs is not None and max_procs != log.procs:
            warnings.append(
                f"header MaxProcs {max_procs} != registered machine size "
                f"{log.procs}"
            )
        max_jobs = header.get("max_jobs")
        if max_jobs is not None and log.jobs and (
            abs(max_jobs - log.jobs) > 0.10 * log.jobs
        ):
            warnings.append(
                f"header MaxJobs {max_jobs} differs from registered "
                f"~{log.jobs} by more than 10% — different log revision?"
            )
        hdr_queues: Dict[int, str] = header.get("queues", {})
        for number, name in sorted(log.queue_names.items()):
            hdr_name = hdr_queues.get(number)
            if hdr_name is not None and hdr_name.split()[0] != name:
                warnings.append(
                    f"queue {number} named {hdr_name!r} in header but "
                    f"{name!r} in registry"
                )
    return report


def build_archive_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp archive",
        description="list registered archive logs / verify a downloaded log",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    sub.add_parser("list", help="list registered archive logs with URLs")
    p_verify = sub.add_parser(
        "verify", help="check a downloaded log's checksum and header "
        "against the registry",
    )
    p_verify.add_argument("path", help="downloaded .swf/.swf.gz file")
    p_verify.add_argument(
        "--key", default=None, metavar="KEY",
        help="registry key (default: inferred from the filename)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_archive_parser().parse_args(argv)
    if args.verb == "list":
        try:
            print(describe_archive())
        except BrokenPipeError:  # e.g. `bmbp archive list | head`
            os.close(sys.stdout.fileno())
        return 0
    report = verify_archive_file(args.path, key=args.key)
    print(f"{report['path']}: sha256 {report['sha256']}")
    print(f"  registry key: {report['key'] or '(none matched)'}")
    print(f"  checksum: {report['checksum']}")
    header = report.get("header", {})
    known = {k: v for k, v in header.items() if k != "queues" and v is not None}
    if known:
        print(f"  header: {known}")
    if header.get("queues"):
        print(f"  header queues: {len(header['queues'])}")
    for warning in report["warnings"]:
        print(f"  warning: {warning}")
    if not report["ok"]:
        print("archive verify: FAILED (checksum mismatch)", file=sys.stderr)
        return 1
    return 0
