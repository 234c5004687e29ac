"""``bmbp corpus``: ingest, inspect, replay and synthesize site stores."""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.corpus.etl import ingest
from repro.corpus.fixtures import generate_corpus_fixture
from repro.corpus.replay import (
    DEFAULT_SPLIT_THRESHOLD,
    progress_printer,
    replay_store,
)
from repro.corpus.store import CorpusError, CorpusStore

__all__ = ["main"]


def build_corpus_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp corpus",
        description="ingest, inspect, and replay archive-scale trace corpora",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_ingest = sub.add_parser(
        "ingest", help="stream a raw log into a columnar site store"
    )
    p_ingest.add_argument("source", help="SWF (.swf/.swf.gz) or Alibaba CSV log")
    p_ingest.add_argument("dest", help="site store directory to create")
    p_ingest.add_argument("--site", default=None, help="site name (default: "
                          "archive key or source stem)")
    p_ingest.add_argument(
        "--format", default="auto", choices=["auto", "swf", "alibaba"],
        help="source adapter (default: inferred from the file name)",
    )
    p_ingest.add_argument(
        "--archive-key", default=None, metavar="KEY",
        help="registered archive log key supplying the queue-name map",
    )
    p_ingest.add_argument(
        "--skew-tolerance", type=float, default=None, metavar="SECONDS",
        help="drop records whose submit falls more than this far behind "
        "the running maximum (default 3600)",
    )
    p_ingest.add_argument("--force", action="store_true",
                          help="replace an existing store")
    p_ingest.set_defaults(run=_ingest)

    p_info = sub.add_parser("info", help="describe a site store")
    p_info.add_argument("store", help="site store directory")
    p_info.add_argument("--verify", action="store_true",
                        help="also recompute per-column checksums")
    p_info.set_defaults(run=_info)

    p_replay = sub.add_parser(
        "replay", help="replay a site store through the epoch kernel + bank"
    )
    p_replay.add_argument("store", help="site store directory")
    p_replay.add_argument("--epoch", type=float, default=300.0)
    p_replay.add_argument(
        "--methods", default=None, metavar="M1,M2,...",
        help="comma-separated method subset (default: full bank)",
    )
    p_replay.add_argument(
        "--min-queue-jobs", type=int, default=1000, metavar="N",
        help="skip queues smaller than this (default %(default)s)",
    )
    p_replay.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the parallel fan-out (default: "
        "$BMBP_JOBS or 1 = serial; results are bit-identical either way)",
    )
    p_replay.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent per-unit result cache for this replay",
    )
    p_replay.add_argument(
        "--progress", action="store_true",
        help="print a live units done/total + ETA line to stderr",
    )
    p_replay.add_argument(
        "--split-threshold", type=int, default=DEFAULT_SPLIT_THRESHOLD,
        metavar="N",
        help="shard queues larger than N rows into independent "
        "history-prefixed chunk units (default %(default)s)",
    )
    p_replay.add_argument("--json", default=None, metavar="PATH",
                          help="write the replay report to PATH")
    p_replay.set_defaults(run=_replay)

    p_fixture = sub.add_parser(
        "make-fixture",
        help="generate a deterministic archive-shaped synthetic SWF log",
    )
    p_fixture.add_argument("path", help="output .swf.gz path")
    p_fixture.add_argument("--jobs", type=int, default=250_000)
    p_fixture.add_argument("--seed", type=int, default=20260808)
    p_fixture.add_argument("--no-anomalies", action="store_true",
                           help="omit the injected cleanable anomalies")
    p_fixture.set_defaults(run=_make_fixture)
    return parser


def _ingest(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.skew_tolerance is not None:
        kwargs["clock_skew_tolerance"] = args.skew_tolerance
    store, stats = ingest(
        args.source, args.dest, site=args.site, fmt=args.format,
        archive_key=args.archive_key, force=args.force, **kwargs,
    )
    drops = sum(stats.drops.values())
    print(
        f"{store.site}: kept {stats.kept:,} of {stats.read:,} records "
        f"({drops:,} dropped) at {stats.rows_per_s:,.0f} rows/s -> "
        f"{store.path}"
    )
    for reason, count in sorted(stats.drops.items()):
        print(f"  dropped {count:,}: {reason}")
    return 0


def _info(args: argparse.Namespace) -> int:
    store = CorpusStore(args.store)
    info = store.describe()
    if args.verify:
        info["checksums"] = store.verify()
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0 if not args.verify or info["checksums"]["ok"] else 1


def _replay(args: argparse.Namespace) -> int:
    report = replay_store(
        CorpusStore(args.store), epoch=args.epoch,
        methods=args.methods.split(",") if args.methods else None,
        min_queue_jobs=args.min_queue_jobs, jobs=args.jobs,
        cache=False if args.no_cache else None,
        split_threshold=args.split_threshold,
        progress=progress_printer() if args.progress else None,
    )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    for queue in sorted(report["queues"]):
        row = report["queues"][queue]
        if row.get("skipped"):
            print(f"{queue}: {row['jobs']} jobs (skipped, < "
                  f"{args.min_queue_jobs})")
            continue
        cov = row.get("coverage")
        if cov:
            print(
                f"{queue}: {row['jobs']:,} jobs, bmbp coverage "
                f"{cov['fraction']:.4f} (Wilson "
                f"[{cov['wilson_low']:.4f}, {cov['wilson_high']:.4f}]) "
                f"{'PASS' if cov['passed'] else 'FAIL'}"
            )
        else:
            print(f"{queue}: {row['jobs']:,} jobs")
    prov = report.get("provenance", {})
    cache_info = prov.get("cache", {})
    print(
        f"{report['site']}: replayed {report['jobs_replayed']:,} jobs "
        f"at {report['jobs_per_s']:,.0f} jobs/s "
        f"({len(report['methods'])} methods, {prov.get('jobs', 1)} "
        f"worker(s), cache {cache_info.get('hits', 0)} hit / "
        f"{cache_info.get('misses', 0)} miss)"
    )
    return 0 if report["coverage_pass"] else 1


def _make_fixture(args: argparse.Namespace) -> int:
    summary = generate_corpus_fixture(
        args.path, jobs=args.jobs, seed=args.seed,
        anomalies=not args.no_anomalies,
    )
    print(
        f"wrote {summary.records:,} records ({summary.jobs:,} valid, "
        f"anomalies {summary.anomalies}) to {summary.path}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_corpus_parser().parse_args(argv)
    try:
        return args.run(args)
    except CorpusError as exc:
        print(f"corpus: {exc}", file=sys.stderr)
        return 1
