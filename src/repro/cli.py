"""Command-line interface: regenerate any table or figure of the paper,
or run the live forecast daemon.

Usage::

    python -m repro table3                 # one experiment
    python -m repro all                    # everything
    python -m repro all --jobs 4           # fan replays out over 4 workers
    python -m repro figure1 --csv out.csv  # also dump plot-ready CSV
    python -m repro table3 --scale 0.2 --seed 11
    python -m repro clear-cache            # wipe the persistent replay cache

    python -m repro serve --state-dir /var/lib/bmbp     # the live daemon
    python -m repro tail trace.swf.gz --speedup 3600    # feed it a log
    python -m repro verify --fast                       # self-verification

    python -m repro broker --site a=host1:7077 --site b=host2:7077
    python -m repro route --procs 8 --walltime 3600     # ask the broker
    python -m repro bench-route --sites 3               # routing-regret bench
    python -m repro bench-sched --smoke                 # scheduling-regret bench

Replays fan out over ``--jobs`` worker processes (default: ``BMBP_JOBS``
or 1) and their results persist in a versioned on-disk cache, so a warm
rerun does zero replays.  ``--no-cache`` bypasses the cache for one run;
``clear-cache`` wipes it.  A per-experiment timing summary (wall-clock,
cache hits, replays) goes to stderr so table output on stdout stays
byte-identical across serial, parallel, and cached runs.

``bmbp`` (the console script) is an alias for ``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro import runtime

from repro.experiments import (
    ablations,
    clustering_eval,
    figure1,
    figure2,
    latency,
    sensitivity,
    table1,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
)
from repro.experiments.runner import ExperimentConfig

__all__ = ["main"]

#: Experiment name -> module with a ``main(config) -> str`` entry point.
EXPERIMENTS: Dict[str, Callable[[Optional[ExperimentConfig]], str]] = {
    "table1": table1.main,
    "table3": table3.main,
    "table4": table4.main,
    "table5": table5.main,
    "table6": table6.main,
    "table7": table7.main,
    "table8": table8.main,
    "figure1": figure1.main,
    "figure2": figure2.main,
    "ablations": ablations.main,
    "latency": latency.main,
    "sensitivity": sensitivity.main,
    "clustering": clustering_eval.main,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp",
        description=(
            "Regenerate the tables and figures of 'Predicting Bounds on "
            "Queuing Delay in Space-shared Computing Environments' "
            "(Brevik, Nurmi, Wolski)."
        ),
        epilog=(
            "Live-service subcommands (each with its own --help): "
            "serve (the forecast daemon), tail (feed it an SWF log), "
            "fleet (a sharded daemon fleet), verify (the self-verification "
            "suite), broker (the multi-site routing broker), route (one "
            "routing decision), bench-route (the routing-regret benchmark), "
            "bench-sched (the closed-loop scheduling benchmark), corpus "
            "(archive-scale trace corpora), archive (registered archive logs)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all", "clear-cache"],
        help="which table/figure to regenerate ('all' runs everything; "
        "'clear-cache' wipes the persistent replay cache and exits)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=ExperimentConfig.scale,
        help="fraction of each queue's Table 1 job count to generate "
        "(default %(default)s; 1.0 regenerates the full 1.26M-job corpus)",
    )
    parser.add_argument(
        "--seed", type=int, default=ExperimentConfig.seed,
        help="workload generator seed (default %(default)s)",
    )
    parser.add_argument(
        "--epoch", type=float, default=ExperimentConfig.epoch,
        help="predictor refit epoch in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--csv", metavar="PATH", default=None,
        help="for figure1/figure2: also write the plotted series as CSV",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for replay fan-out (default: $BMBP_JOBS or 1; "
        "1 = serial)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the persistent replay cache (neither read nor write)",
    )
    return parser


#: Server-side subcommands, dispatched before the experiment parser so the
#: experiment interface (and its tests) stay byte-for-byte unchanged.
SERVER_COMMANDS = {
    "serve": "run the live forecast daemon",
    "tail": "feed a daemon from an SWF trace file",
    "fleet": "run a sharded, replicated fleet of forecast daemons",
    "verify": "run the self-verification suite and write VERIFY.json",
    "broker": "run the multi-site routing broker daemon",
    "route": "ask where to submit a job (broker daemon or --site specs)",
    "bench-route": "replay K sites, score routing regret, write BENCH_route.json",
    "bench-sched": "score bound-aware policies vs an oracle, write BENCH_sched.json",
    "corpus": "ingest, inspect, and replay archive-scale trace corpora",
    "archive": "list registered archive logs / verify a downloaded log",
}


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp serve", description=SERVER_COMMANDS["serve"]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7077,
        help="TCP port (default %(default)s; 0 = ephemeral, written to the "
        "state directory's server.port file)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="checkpoint/journal directory (omit for an in-memory daemon "
        "with no durability)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=30.0, metavar="SECONDS",
        help="periodic checkpoint cadence (default %(default)s)",
    )
    parser.add_argument(
        "--checkpoint-events", type=int, default=1000, metavar="N",
        help="also checkpoint after N journaled events (default %(default)s)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal per event (power-loss durability; slower)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for in-flight requests on SIGTERM (default %(default)s)",
    )
    parser.add_argument(
        "--refit-interval", type=float, default=None, metavar="SECONDS",
        help="wall-clock refit tick for quiet queues (default: off; the "
        "daemon is then strictly event-driven and replay-deterministic)",
    )
    parser.add_argument("--quantile", type=float, default=0.95)
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument(
        "--epoch", type=float, default=300.0,
        help="predictor refit epoch in event-time seconds (default %(default)s)",
    )
    parser.add_argument("--training-jobs", type=int, default=100)
    parser.add_argument(
        "--no-bins", action="store_true",
        help="disable per-processor-bin predictor banks",
    )
    fleet = parser.add_argument_group("fleet membership")
    fleet.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="serve only queues hashing to shard I (requires --shard-count)",
    )
    fleet.add_argument(
        "--shard-count", type=int, default=None, metavar="N",
        help="total shards in the fleet this daemon belongs to",
    )
    fleet.add_argument(
        "--follow", default=None, metavar="HOST:PORT",
        help="run as a warm follower replicating from this primary "
        "(mutations are rejected with not-primary until promoted)",
    )
    fleet.add_argument(
        "--follow-dir", default=None, metavar="DIR",
        help="the primary's state directory; read at promotion to replay "
        "journal entries the replication stream had not delivered",
    )
    fleet.add_argument(
        "--max-batch", type=int, default=128, metavar="N",
        help="group-commit burst size cap (default %(default)s; 1 = "
        "journal and flush each event on its own)",
    )
    fleet.add_argument(
        "--segment-bytes", type=int, default=None, metavar="BYTES",
        help="journal segment roll size (default 4 MiB)",
    )
    return parser


def _serve_main(argv: List[str]) -> int:
    from repro.server import ServerConfig, serve
    from repro.service import ForecasterConfig

    args = build_serve_parser().parse_args(argv)
    if (args.shard_id is None) != (args.shard_count is None):
        print(
            "bmbp serve: --shard-id and --shard-count go together",
            file=sys.stderr,
        )
        return 2
    extra = {}
    if args.segment_bytes is not None:
        extra["segment_bytes"] = args.segment_bytes
    config = ServerConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        checkpoint_interval=args.checkpoint_interval,
        checkpoint_events=args.checkpoint_events,
        fsync=args.fsync,
        drain_timeout=args.drain_timeout,
        refit_interval=args.refit_interval,
        shard_id=args.shard_id,
        shard_count=args.shard_count,
        follow=args.follow,
        follow_dir=args.follow_dir,
        max_batch=args.max_batch,
        forecaster=ForecasterConfig(
            quantile=args.quantile,
            confidence=args.confidence,
            epoch=args.epoch,
            training_jobs=args.training_jobs,
            by_bin=not args.no_bins,
        ),
        **extra,
    )
    return serve(config)


def build_tail_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp tail", description=SERVER_COMMANDS["tail"]
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


def _tail_main(argv: List[str]) -> int:
    from repro.server import tail_swf

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


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp fleet", description=SERVER_COMMANDS["fleet"]
    )
    parser.add_argument(
        "--dir", required=True, metavar="DIR",
        help="fleet directory (manifest + per-shard state directories)",
    )
    parser.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count (default %(default)s)",
    )
    parser.add_argument(
        "--no-replicate", action="store_true",
        help="run primaries only (no warm followers)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--status", action="store_true",
        help="print the fleet topology (ports, roles) of --dir and exit",
    )
    parser.add_argument("--quantile", type=float, default=0.95)
    parser.add_argument("--confidence", type=float, default=0.95)
    parser.add_argument("--epoch", type=float, default=300.0)
    parser.add_argument("--training-jobs", type=int, default=100)
    return parser


def _fleet_main(argv: List[str]) -> int:
    import json as json_module
    import signal as signal_module

    from repro.fleet import FleetManager, FleetTopology

    args = build_fleet_parser().parse_args(argv)
    if args.status:
        topology = FleetTopology.load(args.dir)
        print(json_module.dumps(topology.describe(), indent=2))
        return 0
    extra_args = [
        "--quantile", str(args.quantile),
        "--confidence", str(args.confidence),
        "--epoch", str(args.epoch),
        "--training-jobs", str(args.training_jobs),
    ]
    manager = FleetManager(
        args.dir, shard_count=args.shards, replicate=not args.no_replicate,
        host=args.host, extra_args=extra_args,
    )
    manager.start()
    for shard_id, port in manager.endpoints().items():
        follower = manager.followers.get(shard_id)
        print(
            f"shard {shard_id}: primary {args.host}:{port}"
            + (f", follower {args.host}:{follower.port}" if follower else "")
        )

    stop = {"flag": False}

    def _signal_handler(signum, frame):
        stop["flag"] = True

    for sig in (signal_module.SIGTERM, signal_module.SIGINT):
        signal_module.signal(sig, _signal_handler)

    print("fleet up; Ctrl-C to stop", flush=True)
    try:
        while not stop["flag"]:
            time.sleep(0.25)
    finally:
        manager.stop()
    return 0


def _verify_main(argv: List[str]) -> int:
    from repro.verify.runner import main as verify_main

    return verify_main(argv)


def _add_site_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--site", action="append", default=[], metavar="NAME=HOST:PORT[:QUEUES]",
        help="a forecast daemon to route over (repeatable); queues default "
        "to 'normal'",
    )
    parser.add_argument(
        "--sites-file", default=None, metavar="PATH",
        help="JSON site registry with per-queue limits (see docs/broker.md)",
    )


def _collect_sites(args: argparse.Namespace) -> list:
    from repro.broker import load_sites_file, parse_site_arg

    sites = [parse_site_arg(spec) for spec in args.site]
    if args.sites_file is not None:
        sites.extend(load_sites_file(args.sites_file))
    return sites


def build_broker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp broker", description=SERVER_COMMANDS["broker"]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7079,
        help="TCP port (default %(default)s; 0 = ephemeral, written to the "
        "state directory's server.port file)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="directory for the port file (the broker itself is stateless)",
    )
    _add_site_args(parser)
    parser.add_argument(
        "--request-timeout", type=float, default=0.25, metavar="SECONDS",
        help="per-attempt backend timeout (default %(default)s)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="extra backend attempts per request (default %(default)s)",
    )
    parser.add_argument(
        "--hedge-after", type=float, default=None, metavar="SECONDS",
        help="launch the duplicate request after this long (default: each "
        "backend's observed p95 latency)",
    )
    parser.add_argument(
        "--cache-ttl", type=float, default=0.5, metavar="SECONDS",
        help="stale-while-revalidate freshness window (default %(default)s)",
    )
    parser.add_argument(
        "--breaker-failures", type=int, default=3,
        help="consecutive failures that open a site's breaker (default %(default)s)",
    )
    parser.add_argument(
        "--breaker-reset", type=float, default=2.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe (default %(default)s)",
    )
    parser.add_argument(
        "--pool-size", type=int, default=4,
        help="max pooled connections per backend (default %(default)s)",
    )
    parser.add_argument("--drain-timeout", type=float, default=5.0, metavar="SECONDS")
    return parser


def _broker_main(argv: List[str]) -> int:
    from repro.broker import BrokerConfig, serve_broker

    args = build_broker_parser().parse_args(argv)
    sites = _collect_sites(args)
    if not sites:
        print("bmbp broker: at least one --site or --sites-file is required",
              file=sys.stderr)
        return 2
    return serve_broker(BrokerConfig(
        sites=sites,
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        request_timeout=args.request_timeout,
        retries=args.retries,
        hedge_after=args.hedge_after,
        cache_ttl=args.cache_ttl,
        breaker_failures=args.breaker_failures,
        breaker_reset=args.breaker_reset,
        pool_size=args.pool_size,
        drain_timeout=args.drain_timeout,
    ))


def build_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp route", description=SERVER_COMMANDS["route"]
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="broker daemon host (ignored with --site)")
    parser.add_argument("--port", type=int, default=7079,
                        help="broker daemon port (ignored with --site)")
    _add_site_args(parser)
    parser.add_argument("--procs", type=int, default=1)
    parser.add_argument("--walltime", type=float, default=None, metavar="SECONDS")
    parser.add_argument("--queue", default=None,
                        help="restrict the fan-out to one queue name")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="per-site network budget for the fan-out")
    parser.add_argument("--json", action="store_true",
                        help="print the full decision as JSON")
    return parser


def _format_route(decision: dict) -> str:
    lines = []
    best = decision.get("best")
    if best is not None:
        bound = best["bound"]
        lines.append(
            f"best: {best['site']}/{best['queue']} "
            f"bound={bound:,.0f}s ({best['source']})"
        )
    else:
        lines.append("best: none (no site produced a usable bound)")
    for quote in decision.get("ranked", []):
        bound = quote["bound"]
        bound_text = f"{bound:,.0f}s" if bound is not None else "-"
        flags = [quote["source"]]
        if quote["stale"]:
            flags.append("stale")
        if quote["hedged"]:
            flags.append("hedged")
        lines.append(
            f"  {quote['site']}/{quote['queue']}: bound={bound_text} "
            f"[{','.join(flags)}] breaker={quote['breaker']}"
        )
    for excluded in decision.get("infeasible", []):
        lines.append(
            f"  {excluded['site']}/{excluded['queue']}: "
            f"infeasible ({excluded['reason']})"
        )
    lines.append(f"decided in {decision.get('decided_ms', 0.0):.1f} ms")
    return "\n".join(lines)


def _route_main(argv: List[str]) -> int:
    import asyncio
    import json as json_module

    args = build_route_parser().parse_args(argv)
    sites = _collect_sites(args)
    if sites:
        from repro.broker import RoutingBroker

        broker = RoutingBroker(sites)

        async def _ask() -> dict:
            try:
                decision = await broker.route(
                    procs=args.procs, walltime=args.walltime,
                    queue=args.queue, deadline=args.deadline,
                )
                return decision.to_dict()
            finally:
                await broker.close()

        decision = asyncio.run(_ask())
    else:
        from repro.server.client import ForecastClient, ServerError, TransportError

        try:
            with ForecastClient(args.host, args.port) as client:
                decision = client._request(
                    "route", procs=args.procs, walltime=args.walltime,
                    queue=args.queue, deadline=args.deadline,
                )
        except (ServerError, TransportError) as exc:
            print(f"bmbp route: {exc}", file=sys.stderr)
            return 1
    if args.json:
        print(json_module.dumps(decision, indent=2, sort_keys=True))
    else:
        print(_format_route(decision))
    return 0 if decision.get("best") is not None else 1


def build_bench_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp bench-route", description=SERVER_COMMANDS["bench-route"]
    )
    parser.add_argument(
        "--sites", type=int, default=3,
        help="forecast daemons to spawn and route over (default %(default)s)",
    )
    parser.add_argument(
        "--feed-jobs", type=int, default=200, metavar="N",
        help="SWF jobs fed to each daemon before routing (default %(default)s)",
    )
    parser.add_argument(
        "--routes", type=int, default=60, metavar="N",
        help="routing decisions in the healthy phase (default %(default)s)",
    )
    parser.add_argument(
        "--degraded-routes", type=int, default=30, metavar="N",
        help="routing decisions after killing one backend (default %(default)s)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--request-timeout", type=float, default=0.25, metavar="SECONDS",
    )
    parser.add_argument(
        "--no-kill", action="store_true",
        help="skip the kill-one-backend degradation phase",
    )
    parser.add_argument(
        "--json", default="BENCH_route.json", metavar="PATH",
        help="regret/latency artifact path (default %(default)s)",
    )
    return parser


def _bench_route_main(argv: List[str]) -> int:
    from repro.broker import run_route_bench

    args = build_bench_route_parser().parse_args(argv)
    report = run_route_bench(
        sites=args.sites,
        feed_jobs=args.feed_jobs,
        routes=args.routes,
        degraded_routes=args.degraded_routes,
        seed=args.seed,
        artifact=args.json,
        request_timeout=args.request_timeout,
        kill_one=not args.no_kill,
    )
    regret = report["regret"]
    parts = [
        f"{policy}={stats['mean_regret_s']:.0f}s"
        for policy, stats in regret["policies"].items()
    ]
    latency = report["healthy"]["decision_latency_ms"]
    print(
        f"regret over {regret['probes']} probes: {' '.join(parts)} "
        f"(broker strictly lowest: {regret['broker_strictly_lowest']})"
    )
    print(
        f"decision latency over {latency['count']} routes: "
        f"p50={latency['p50']:.1f}ms p99={latency['p99']:.1f}ms "
        f"({report['healthy']['failed_routes']} failed)"
    )
    if "degraded" in report:
        degraded = report["degraded"]
        print(
            f"after killing {degraded['killed_site']}: "
            f"{degraded['routes']} routes, "
            f"{degraded['failed_routes']} failed, "
            f"{degraded['stale_answers']} stale answers, "
            f"breaker opened: {degraded['breaker_opened']}"
        )
    print(f"[bmbp] route benchmark written to {args.json}", file=sys.stderr)
    return 0


def build_bench_sched_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp bench-sched", description=SERVER_COMMANDS["bench-sched"]
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI variant: only the smoke-marked scenarios, and a failed "
        "regret gate (every predictive policy strictly below "
        "BMBP_BENCH_MAX_SCHED_REGRET_RATIO times the best non-predictive "
        "baseline, default 1.0) exits nonzero",
    )
    parser.add_argument(
        "--max-regret-ratio", type=float, default=None, metavar="R",
        help="override the gate ratio (default: "
        "$BMBP_BENCH_MAX_SCHED_REGRET_RATIO or 1.0)",
    )
    parser.add_argument(
        "--json", default="BENCH_sched.json", metavar="PATH",
        help="policy-table artifact path (default %(default)s)",
    )
    return parser


def _bench_sched_main(argv: List[str]) -> int:
    import os

    from repro.scheduler.evaluate import run_sched_bench

    args = build_bench_sched_parser().parse_args(argv)
    ratio = args.max_regret_ratio
    if ratio is None:
        ratio = float(os.environ.get("BMBP_BENCH_MAX_SCHED_REGRET_RATIO", "1.0"))
    report = run_sched_bench(
        smoke=args.smoke, max_regret_ratio=ratio, artifact=args.json
    )
    for entry in report["scenarios"]:
        parts = [
            f"{policy}={stats['mean_regret_s']:.0f}s"
            for policy, stats in entry["policies"].items()
        ]
        print(f"{entry['name']}: {' '.join(parts)}")
    gate = report["gate"]
    aggregate = report["aggregate"]
    print(
        f"aggregate regret vs best baseline ({gate['best_baseline']}: "
        f"{gate['best_baseline_regret_s']:.0f}s, threshold "
        f"{gate['threshold_s']:.0f}s): "
        + " ".join(
            f"{policy}={aggregate[policy]['mean_regret_s']:.0f}s"
            f"[{'ok' if ok else 'FAIL'}]"
            for policy, ok in gate["predictive"].items()
        )
    )
    print(f"[bmbp] scheduling benchmark written to {args.json}", file=sys.stderr)
    if args.smoke and not gate["passed"]:
        print(
            "bench-sched: FAILED — a predictive policy's regret is not "
            "strictly below the best baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def build_corpus_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp corpus", description=SERVER_COMMANDS["corpus"]
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

    p_info = sub.add_parser("info", help="describe a site store")
    p_info.add_argument("store", help="site store directory")
    p_info.add_argument("--verify", action="store_true",
                        help="also recompute per-column checksums")

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
        "--split-threshold", type=int, default=None, metavar="N",
        help="shard queues larger than N rows into independent "
        "history-prefixed chunk units (default 150000)",
    )
    p_replay.add_argument("--json", default=None, metavar="PATH",
                          help="write the replay report to PATH")

    p_fixture = sub.add_parser(
        "make-fixture",
        help="generate a deterministic archive-shaped synthetic SWF log",
    )
    p_fixture.add_argument("path", help="output .swf.gz path")
    p_fixture.add_argument("--jobs", type=int, default=250_000)
    p_fixture.add_argument("--seed", type=int, default=20260808)
    p_fixture.add_argument("--no-anomalies", action="store_true",
                           help="omit the injected cleanable anomalies")
    return parser


def _corpus_main(argv: List[str]) -> int:
    import json as json_mod

    from repro.corpus import (
        CorpusError, CorpusStore, generate_corpus_fixture, ingest,
        replay_store,
    )

    args = build_corpus_parser().parse_args(argv)
    try:
        if args.verb == "ingest":
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
        if args.verb == "info":
            store = CorpusStore(args.store)
            info = store.describe()
            if args.verify:
                info["checksums"] = store.verify()
            print(json_mod.dumps(info, indent=2, sort_keys=True))
            return 0 if not args.verify or info["checksums"]["ok"] else 1
        if args.verb == "replay":
            from repro.corpus.replay import DEFAULT_SPLIT_THRESHOLD, progress_printer

            store = CorpusStore(args.store)
            methods = args.methods.split(",") if args.methods else None
            report = replay_store(
                store, epoch=args.epoch, methods=methods,
                min_queue_jobs=args.min_queue_jobs, jobs=args.jobs,
                cache=False if args.no_cache else None,
                split_threshold=(args.split_threshold
                                 if args.split_threshold is not None
                                 else DEFAULT_SPLIT_THRESHOLD),
                progress=progress_printer() if args.progress else None,
            )
            if args.json:
                with open(args.json, "w") as fh:
                    json_mod.dump(report, fh, indent=2, sort_keys=True)
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
        if args.verb == "make-fixture":
            summary = generate_corpus_fixture(
                args.path, jobs=args.jobs, seed=args.seed,
                anomalies=not args.no_anomalies,
            )
            print(
                f"wrote {summary.records:,} records ({summary.jobs:,} valid, "
                f"anomalies {summary.anomalies}) to {summary.path}"
            )
            return 0
    except CorpusError as exc:
        print(f"corpus: {exc}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled corpus verb {args.verb!r}")


def build_archive_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp archive", description=SERVER_COMMANDS["archive"]
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


def _archive_main(argv: List[str]) -> int:
    from repro.workloads.archive import describe_archive, verify_archive_file

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


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in SERVER_COMMANDS:
        dispatch = {
            "serve": _serve_main,
            "tail": _tail_main,
            "fleet": _fleet_main,
            "verify": _verify_main,
            "broker": _broker_main,
            "route": _route_main,
            "bench-route": _bench_route_main,
            "bench-sched": _bench_sched_main,
            "corpus": _corpus_main,
            "archive": _archive_main,
        }
        return dispatch[argv[0]](list(argv[1:]))
    args = build_parser().parse_args(argv)
    config = ExperimentConfig(scale=args.scale, seed=args.seed, epoch=args.epoch)

    if args.experiment == "clear-cache":
        removed = runtime.clear_disk_cache()
        print(
            f"replay cache cleared ({removed} entries removed from "
            f"{runtime.default_cache_dir()})"
        )
        return 0

    runtime.configure(jobs=args.jobs, cache=False if args.no_cache else None)
    jobs = runtime.resolve_jobs()

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    failed: List[str] = []
    total = 0.0
    for i, name in enumerate(names):
        if i:
            print()
        before = runtime.stats()
        started = time.perf_counter()
        try:
            output = EXPERIMENTS[name](config)
        except Exception:
            # Worker tracebacks (runtime.WorkerError carries the remote one
            # verbatim) must surface, not vanish into a half-printed run.
            failed.append(name)
            print(f"[bmbp] {name} FAILED:", file=sys.stderr)
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - started
        total += elapsed
        print(output)
        delta = runtime.stats().since(before)
        print(
            f"[bmbp] {name}: {elapsed:.2f}s ({delta.summary()} jobs={jobs})",
            file=sys.stderr,
        )

    if args.experiment == "all":
        print(
            f"[bmbp] all: {len(names) - len(failed)}/{len(names)} experiments ok, "
            f"{total:.2f}s total"
            + (f", FAILED: {', '.join(failed)}" if failed else ""),
            file=sys.stderr,
        )
    if failed:
        return 1

    if args.csv is not None:
        if args.experiment == "figure1":
            figure1.write_series_csv(figure1.run_figure1(config), args.csv)
            print(f"\nseries written to {args.csv}")
        elif args.experiment == "figure2":
            figure2.write_series_csv(figure2.run_figure2(config), args.csv)
            print(f"\nseries written to {args.csv}")
        else:
            print("--csv is only meaningful for figure1/figure2", file=sys.stderr)
            return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
