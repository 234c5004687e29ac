"""Offline routing-regret evaluation and the live route benchmark.

Does the broker's bound-ordered pick actually start jobs sooner?  This
module scores it the way the scheduling literature scores meta-schedulers:
**regret against an oracle**.  K sites' SWF traces are replayed side by
side; at each probe instant every site's realized wait is the wait of the
next job actually submitted there (what a user routing at that moment
would have experienced), and the oracle picks the site with the smallest
realized wait.  A policy's regret is the realized wait of its pick minus
the oracle's — zero when it chose the best queue, positive otherwise.

Three policies compete over the identical probe sequence:

* ``broker``    — smallest predicted BMBP bound (the paper's Figure 1 rule),
* ``random``    — uniform site choice (seeded),
* ``round_robin`` — cycle through the sites.

``run_route_bench`` is the live end of the same question (used by
``bmbp bench-route`` and ``benchmarks/bench_route.py``): it spawns one
real forecast daemon per site, feeds each its SWF trace, drives a
:class:`~repro.broker.broker.RoutingBroker` over them measuring fan-out
decision latency, then kills one backend mid-run and verifies the broker
degrades (stale-cache answers, breaker opens) without failing a single
route.  Everything — regret table, latency percentiles, degradation
counters, the broker's own metrics — lands in ``BENCH_route.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.broker.broker import RoutingBroker
from repro.broker.registry import DEFAULT_QUEUE, SiteSpec
from repro.scheduler.constraints import QueueLimit
from repro.server.client import ForecastClient, read_port_file, spawn_daemon
from repro.service.forecaster import ForecasterConfig, QueueForecaster
from repro.workloads.swf import load_swf, write_swf
from repro.workloads.trace import Trace

__all__ = [
    "BENCH_ROUTE_SCHEMA",
    "evaluate_regret",
    "main",
    "make_site_traces",
    "run_route_bench",
]

BENCH_ROUTE_SCHEMA = "bmbp-bench-route/1"

#: Mean log-wait of site 0 and the total span to the slowest site.  The
#: span is fixed (not per-site) so adding sites densifies the quality
#: ladder instead of stretching it: the slowest site's median wait stays
#: ~e**5.4 = 220 s, well inside the replay's ~3-hour submission window.
#: A site whose waits exceeded that window would never accumulate started
#: jobs, its forecaster would never quote, and every regret probe would
#: be skipped.
_BASE_LOG_WAIT = 3.0
_LOG_WAIT_SPAN = 2.4
_LOG_WAIT_SIGMA = 0.6


def make_site_traces(
    sites: int = 3,
    jobs: int = 400,
    seed: int = 11,
    out_dir: Optional[Union[str, Path]] = None,
) -> List[Tuple[str, Trace]]:
    """K synthetic site traces, round-tripped through SWF.

    Each site's waits are lognormal with a site-specific scale (site 0
    fastest), Poisson arrivals, and mixed processor counts.  When
    ``out_dir`` is given each trace is written as ``<site>.swf`` and
    loaded back, so what the evaluator and the benchmark consume is
    exactly what an archive log would give them (integer-second times
    and all).
    """
    if sites < 2:
        raise ValueError("regret needs at least 2 sites to choose between")
    rng = np.random.default_rng(seed)
    named: List[Tuple[str, Trace]] = []
    for index in range(sites):
        gaps = rng.exponential(scale=60.0, size=jobs)
        submits = np.cumsum(gaps)
        waits = rng.lognormal(
            mean=_BASE_LOG_WAIT + _LOG_WAIT_SPAN * index / max(1, sites - 1),
            sigma=_LOG_WAIT_SIGMA,
            size=jobs,
        )
        procs = rng.choice([1, 2, 4, 8, 16], size=jobs)
        runtimes = rng.lognormal(mean=6.0, sigma=1.0, size=jobs)
        trace = Trace.from_arrays(
            submit_times=submits,
            waits=waits,
            procs=procs,
            queue=DEFAULT_QUEUE,
            runtimes=runtimes,
            name=f"site{index}",
        )
        if out_dir is not None:
            path = Path(out_dir) / f"site{index}.swf"
            write_swf(trace, path)
            trace = load_swf(path, queue_names={1: DEFAULT_QUEUE}, name=f"site{index}")
        named.append((f"site{index}", trace))
    return named


# ------------------------------------------------------------ offline regret


def evaluate_regret(
    site_traces: List[Tuple[str, Trace]],
    probe_every: int = 20,
    warmup: int = 120,
    training_jobs: int = 50,
    seed: int = 5,
) -> Dict[str, Any]:
    """Replay K traces side by side and score the three routing policies.

    One :class:`QueueForecaster` per site ingests that site's submit/start
    events in global time order (the same information protocol the live
    daemons follow).  Every ``probe_every``-th submission after ``warmup``
    submissions becomes a probe: each policy picks a site from the
    forecasters' current bounds, and its regret is its pick's realized
    wait minus the oracle's.
    """
    names = [name for name, _ in site_traces]
    traces = [trace for _, trace in site_traces]
    forecasters = [
        QueueForecaster(
            ForecasterConfig(epoch=0.0, by_bin=False, training_jobs=training_jobs)
        )
        for _ in traces
    ]
    # (time, kind, site, job-index): kind 0 = submit, 1 = start, so a
    # zero-wait job's submit still precedes its start at equal timestamps.
    events: List[Tuple[float, int, int, int]] = []
    for site, trace in enumerate(traces):
        for j, job in enumerate(trace):
            events.append((job.submit_time, 0, site, j))
            events.append((job.start_time, 1, site, j))
    events.sort()

    rng = np.random.default_rng(seed)
    next_job = [0] * len(traces)  # per-site pointer for realized waits
    policies = ["broker", "random", "round_robin"]
    regret = {name: 0.0 for name in policies}
    wins = {name: 0 for name in policies}
    probes = 0
    skipped = 0
    submits_seen = 0
    rr_counter = 0

    for when, kind, site, j in events:
        job = traces[site][j]
        if kind == 0:
            forecasters[site].job_submitted(
                f"s{site}-{j}", DEFAULT_QUEUE, job.procs, now=when
            )
            submits_seen += 1
            while next_job[site] < len(traces[site]) and (
                traces[site][next_job[site]].submit_time < when
            ):
                next_job[site] += 1
            if submits_seen <= warmup or submits_seen % probe_every:
                continue
            predicted = [f.forecast(DEFAULT_QUEUE) for f in forecasters]
            realized = [
                traces[s][next_job[s]].wait
                if next_job[s] < len(traces[s])
                else None
                for s in range(len(traces))
            ]
            if any(p is None for p in predicted) or any(
                r is None for r in realized
            ):
                skipped += 1
                continue
            oracle = min(realized)
            picks = {
                "broker": int(np.argmin(predicted)),
                "random": int(rng.integers(len(traces))),
                "round_robin": rr_counter % len(traces),
            }
            rr_counter += 1
            probes += 1
            for policy, pick in picks.items():
                regret[policy] += realized[pick] - oracle
                if realized[pick] == oracle:
                    wins[policy] += 1
        else:
            forecasters[site].job_started(f"s{site}-{j}", now=when)

    return {
        "sites": names,
        "probes": probes,
        "skipped": skipped,
        "policies": {
            policy: {
                "mean_regret_s": regret[policy] / probes if probes else None,
                "total_regret_s": regret[policy],
                "oracle_picks": wins[policy],
            }
            for policy in policies
        },
    }


# --------------------------------------------------------------- live bench


def _feed_daemon(port: int, trace: Trace, jobs: int) -> int:
    """Feed a daemon the first ``jobs`` jobs of a trace (event-time clock)."""
    fed = 0
    with ForecastClient("127.0.0.1", port) as client:
        client.wait_until_up()
        for i, job in enumerate(trace):
            if i >= jobs:
                break
            client.submit(
                f"feed-{i}", queue=DEFAULT_QUEUE, procs=job.procs,
                now=job.submit_time,
            )
            client.start(f"feed-{i}", now=job.start_time)
            fed += 1
    return fed


async def _drive_routes(
    broker: RoutingBroker,
    routes: int,
    procs: int,
    walltime: float,
    victim: Optional[str] = None,
) -> Dict[str, Any]:
    """Sequential routes; counts failures and the victim's quote sources."""
    latencies: List[float] = []
    failed = 0
    victim_sources: Dict[str, int] = {}
    for _ in range(routes):
        try:
            decision = await broker.route(procs=procs, walltime=walltime)
        except Exception:  # noqa: BLE001 - a raise IS the failure being counted
            failed += 1
            continue
        latencies.append(decision.decided_ms)
        if decision.best is None:
            failed += 1
        if victim is not None:
            for quote in decision.ranked:
                if quote.site == victim:
                    victim_sources[quote.source] = (
                        victim_sources.get(quote.source, 0) + 1
                    )
    ordered = np.sort(np.asarray(latencies, dtype=float))
    return {
        "routes": routes,
        "failed_routes": failed,
        "victim_quote_sources": victim_sources,
        "decision_latency_ms": {
            "p50": float(np.quantile(ordered, 0.50)) if ordered.size else None,
            "p90": float(np.quantile(ordered, 0.90)) if ordered.size else None,
            "p99": float(np.quantile(ordered, 0.99)) if ordered.size else None,
            "mean": float(ordered.mean()) if ordered.size else None,
            "max": float(ordered.max()) if ordered.size else None,
            "count": int(ordered.size),
        },
    }


def run_route_bench(
    sites: int = 3,
    feed_jobs: int = 200,
    routes: int = 60,
    degraded_routes: int = 30,
    seed: int = 11,
    artifact: Optional[Union[str, Path]] = "BENCH_route.json",
    request_timeout: float = 0.25,
    hedge_after: Optional[float] = None,
    probe_procs: int = 4,
    probe_walltime: float = 3600.0,
    kill_one: bool = True,
) -> Dict[str, Any]:
    """The full route benchmark; see the module docstring.

    Spawns ``sites`` real forecast daemons, trains each from its SWF
    trace, measures ``routes`` fan-out decisions, then (unless
    ``kill_one`` is off) kills site 0's daemon and runs
    ``degraded_routes`` more — which must all still answer.
    """
    if sites < 2:
        raise ValueError("route benchmark needs at least 2 sites")
    report: Dict[str, Any] = {
        "schema": BENCH_ROUTE_SCHEMA,
        "config": {
            "sites": sites, "feed_jobs": feed_jobs, "routes": routes,
            "degraded_routes": degraded_routes, "seed": seed,
            "request_timeout": request_timeout, "hedge_after": hedge_after,
            "probe_procs": probe_procs, "probe_walltime": probe_walltime,
            "kill_one": kill_one,
        },
    }
    processes = []
    broker: Optional[RoutingBroker] = None
    with tempfile.TemporaryDirectory(prefix="bmbp-bench-route-") as tmp:
        named = make_site_traces(
            sites=sites, jobs=feed_jobs + 50, seed=seed, out_dir=tmp
        )
        report["regret"] = evaluate_regret(named, seed=seed)
        specs: List[SiteSpec] = []
        try:
            for name, trace in named:
                state_dir = Path(tmp) / name
                state_dir.mkdir()
                processes.append(spawn_daemon(
                    state_dir,
                    extra_args=[
                        "--training-jobs", "30", "--epoch", "0", "--no-bins",
                    ],
                    checkpoint_interval=600.0,
                ))
                port = read_port_file(state_dir)
                _feed_daemon(port, trace, feed_jobs)
                specs.append(SiteSpec(
                    name=name, host="127.0.0.1", port=port,
                    queues={DEFAULT_QUEUE: QueueLimit()},
                ))
            # cache_ttl=0 keeps every healthy-phase decision a real network
            # fan-out (the latency being measured) while the stale path
            # still remembers the last bound for the kill phase.
            broker = RoutingBroker(
                specs,
                request_timeout=request_timeout,
                hedge_after=hedge_after,
                cache_ttl=0.0,
            )

            async def _bench() -> None:
                report["healthy"] = await _drive_routes(
                    broker, routes, probe_procs, probe_walltime
                )
                if kill_one:
                    victim = specs[0].name
                    processes[0].kill()
                    processes[0].wait()
                    degraded = await _drive_routes(
                        broker, degraded_routes, probe_procs, probe_walltime,
                        victim=victim,
                    )
                    transitions = broker.metrics.breaker_transitions.get(
                        victim, {}
                    )
                    degraded["killed_site"] = victim
                    degraded["breaker_opened"] = (
                        transitions.get("closed->open", 0) >= 1
                    )
                    degraded["stale_answers"] = degraded[
                        "victim_quote_sources"
                    ].get("stale", 0)
                    report["degraded"] = degraded
                await broker.close()

            asyncio.run(_bench())
            report["broker_metrics"] = broker.metrics.snapshot()
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                if process.poll() is None:
                    try:
                        process.wait(timeout=5.0)
                    except Exception:  # noqa: BLE001 - last resort below
                        process.kill()
                        process.wait()

    policies = report["regret"]["policies"]
    broker_regret = policies["broker"]["mean_regret_s"]
    report["regret"]["broker_strictly_lowest"] = broker_regret is not None and all(
        broker_regret < policies[other]["mean_regret_s"]
        for other in ("random", "round_robin")
    )
    report["created_unix"] = time.time()
    if artifact is not None:
        path = Path(artifact)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def build_bench_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp bench-route",
        description="replay K sites, score routing regret, write BENCH_route.json",
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


def main(argv: Optional[List[str]] = None) -> int:
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
