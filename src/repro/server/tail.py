"""Log-tailing shim: feed a live daemon from a trace file.

The paper's deployment story assumes the batch system emits submit/start
events as they happen.  This shim fakes exactly that from a recorded
trace (SWF from the Parallel Workloads Archive, plain or gzipped, via
:mod:`repro.workloads.swf`): it interleaves every job's submission and
start into one time-ordered event stream and pushes it to a running
daemon through :class:`ForecastClient` (or a whole fleet through
:class:`repro.fleet.FleetClient`, which routes each queue to its shard),
sleeping between events to honor the original spacing compressed by
``speedup`` (``speedup <= 0`` replays as fast as the server accepts — the
load-test mode).

Every event carries its *trace* timestamp, not the wall clock, so the
daemon's predictor state after a tail run is identical at any speedup —
the replay factor changes only how long the feed takes, never what the
forecaster learns.

This is also the live integration recipe: point a real scheduler's log
follower at the same client calls and the daemon serves production
traffic.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.server.client import ForecastClient, ServerError
from repro.workloads.swf import load_swf
from repro.workloads.trace import Trace

__all__ = ["main", "tail_trace", "tail_swf"]


def tail_trace(
    trace: Trace,
    client: ForecastClient,
    speedup: float = 0.0,
    limit: Optional[int] = None,
    progress_every: int = 0,
) -> Dict[str, float]:
    """Replay a trace's submit/start events into a live daemon.

    Parameters
    ----------
    trace:
        The jobs to feed, in any order (events are time-sorted here).
    client:
        Connected :class:`ForecastClient` or
        :class:`~repro.fleet.FleetClient`: only ``submit`` and ``start``
        are called.
    speedup:
        Trace-seconds per wall-second; ``3600`` replays an hour of log per
        second.  ``<= 0`` disables pacing entirely.
    limit:
        Feed only the first ``limit`` jobs of the trace.
    progress_every:
        Print a progress line to stderr every N events (0 = silent).

    Returns a summary dict: events sent, quotes received, quote hit rate
    (fraction of quoted bounds the eventual wait respected), wall seconds.
    """
    jobs = list(trace)[: limit if limit is not None else len(trace)]
    events = []
    for i, job in enumerate(jobs):
        job_id = f"{trace.name or 'tail'}-{i}"
        events.append((job.submit_time, 0, job_id, job))
        events.append((job.start_time, 1, job_id, job))
    # Submissions sort before starts at equal timestamps: a zero-wait job
    # must still be submitted before it starts.
    events.sort(key=lambda event: (event[0], event[1]))

    started_wall = time.monotonic()
    first_stamp = events[0][0] if events else 0.0
    sent = quoted = hits = skipped = 0
    for stamp, kind, job_id, job in events:
        if speedup > 0:
            target = started_wall + (stamp - first_stamp) / speedup
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        try:
            if kind == 0:
                bound = client.submit(job_id, job.queue or "default",
                                      job.procs, now=stamp)
                if bound is not None:
                    quoted += 1
                    if job.wait <= bound:
                        hits += 1
            else:
                client.start(job_id, now=stamp)
        except ServerError as exc:
            # One bad record (e.g. duplicate ids in a dirty log) must not
            # abort a multi-hour tail; count it and move on.
            skipped += 1
            if progress_every:
                print(f"bmbp-tail: skipped {job_id}: {exc}", file=sys.stderr)
            continue
        sent += 1
        if progress_every and sent % progress_every == 0:
            print(
                f"bmbp-tail: {sent}/{len(events)} events "
                f"({quoted} quoted, {skipped} skipped)",
                file=sys.stderr,
                flush=True,
            )
    elapsed = time.monotonic() - started_wall
    return {
        "jobs": len(jobs),
        "events_sent": sent,
        "events_skipped": skipped,
        "quotes": quoted,
        "quote_hit_rate": (hits / quoted) if quoted else None,
        "wall_seconds": elapsed,
        "events_per_sec": sent / elapsed if elapsed > 0 else float("inf"),
    }


def tail_swf(
    path: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 7077,
    speedup: float = 0.0,
    limit: Optional[int] = None,
    queue_names: Optional[Dict[int, str]] = None,
    progress_every: int = 5000,
    fleet: Optional[Union[str, Path]] = None,
) -> Dict[str, float]:
    """Tail an SWF file (plain or ``.gz``) into a live daemon, or into the
    fleet whose directory is ``fleet`` (``host``/``port`` are then unused)."""
    trace = load_swf(path, queue_names=queue_names)
    if fleet is not None:
        # Imported here: repro.fleet imports repro.server, which imports
        # this module.
        from repro.fleet import FleetClient, FleetTopology

        # Loading the endpoints waits for every shard primary's port file.
        client = FleetClient(FleetTopology.load(fleet))
    else:
        # A paced tail can idle for minutes between events; the keepalive
        # ping revalidates the pooled connection instead of risking a
        # retried submit.
        client = ForecastClient(host, port, keepalive=30.0)
    with client:
        if fleet is None:
            client.wait_until_up()
        return tail_trace(
            trace, client, speedup=speedup, limit=limit,
            progress_every=progress_every,
        )


def build_tail_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp tail", description="feed a daemon from an SWF trace file"
    )
    parser.add_argument("swf", help="SWF trace file (plain or .gz)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7077)
    parser.add_argument(
        "--fleet", default=None, metavar="DIR",
        help="feed the fleet in DIR (each queue goes to its shard) instead "
        "of the daemon at --host/--port",
    )
    parser.add_argument(
        "--speedup", type=float, default=0.0, metavar="X",
        help="trace-seconds replayed per wall-second (3600 = an hour of log "
        "per second; default 0 = as fast as the daemon accepts)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="feed only the first N jobs",
    )
    parser.add_argument(
        "--progress-every", type=int, default=5000, metavar="N",
        help="stderr progress line cadence in events (0 = silent)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_tail_parser().parse_args(argv)
    summary = tail_swf(
        args.swf, host=args.host, port=args.port, speedup=args.speedup,
        limit=args.limit, progress_every=args.progress_every, fleet=args.fleet,
    )
    hit = summary["quote_hit_rate"]
    print(
        f"tailed {summary['jobs']} jobs ({summary['events_sent']} events, "
        f"{summary['events_skipped']} skipped) in "
        f"{summary['wall_seconds']:.1f}s "
        f"({summary['events_per_sec']:.0f} ev/s); "
        f"{summary['quotes']} quotes"
        + (f", {hit:.1%} held" if hit is not None else "")
    )
    return 0
