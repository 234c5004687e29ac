"""The routing broker: registry + fan-out + ranking behind one ``route()``.

``RoutingBroker`` answers the paper's Figure 1 question as a service:
*"where should I submit an n-node job to start soonest, at the configured
quantile and confidence?"*.  One call fans a forecast request out to every
feasible (site, queue) pair concurrently, collects live bounds (or
degraded stale ones — see :mod:`repro.broker.fanout`), and returns an
explicitly ordered recommendation with per-site provenance.

``route()`` never raises for backend trouble: a site that is slow, down,
or breaker-open contributes a stale or ``none`` quote instead of an
exception, so the broker's availability is the *best* backend's, not the
worst's.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from typing import Dict, List, Optional

from repro.broker.breaker import CircuitBreaker
from repro.broker.cache import ForecastCache
from repro.broker.fanout import Backend, SiteQuote
from repro.broker.ranking import RouteDecision, feasible_queues, rank_quotes
from repro.broker.registry import SiteSpec, add_site_args, sites_from_args
from repro.server.client import ForecastClient, ServerError, TransportError
from repro.server.metrics import BrokerMetrics

__all__ = ["RoutingBroker", "main"]


class RoutingBroker:
    """Fan-out routing over a registry of forecast daemons."""

    def __init__(
        self,
        sites: List[SiteSpec],
        metrics: Optional[BrokerMetrics] = None,
        request_timeout: float = 0.25,
        retries: int = 1,
        hedge_after: Optional[float] = None,
        cache_ttl: float = 0.5,
        breaker_reset: float = 2.0,
    ):
        if not sites:
            raise ValueError("broker needs at least one site")
        names = [spec.name for spec in sites]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate site names: {names}")
        self.metrics = metrics if metrics is not None else BrokerMetrics()
        self.backends: Dict[str, Backend] = {
            spec.name: Backend(
                spec,
                metrics=self.metrics,
                request_timeout=request_timeout,
                retries=retries,
                hedge_after=hedge_after,
                breaker=CircuitBreaker(reset_timeout=breaker_reset),
                cache=ForecastCache(ttl=cache_ttl),
            )
            for spec in sites
        }

    @property
    def sites(self) -> List[SiteSpec]:
        return [backend.spec for backend in self.backends.values()]

    # --------------------------------------------------------------- routing

    async def route(
        self,
        procs: int = 1,
        walltime: Optional[float] = None,
        queue: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> RouteDecision:
        """One routing decision; see the module docstring for semantics.

        ``queue`` restricts the fan-out to a single queue name across all
        sites; ``deadline`` is the per-request network budget in seconds
        (default: each backend's worst-case retry budget).
        """
        if procs < 1:
            raise ValueError(f"procs must be at least 1, got {procs}")
        started = time.perf_counter()
        tasks = []
        infeasible = []
        for backend in self.backends.values():
            feasible, excluded = feasible_queues(backend.spec, procs, walltime)
            infeasible.extend(excluded)
            if queue is not None:
                feasible = [name for name in feasible if name == queue]
            for name in feasible:
                tasks.append(backend.forecast(name, procs, deadline=deadline))
        quotes: List[SiteQuote] = []
        ok = True
        if tasks:
            for result in await asyncio.gather(*tasks, return_exceptions=True):
                if isinstance(result, BaseException):
                    # forecast() degrades internally; an exception here is a
                    # broker bug — count it, keep the route alive anyway.
                    ok = False
                    continue
                quotes.append(result)
        decision = RouteDecision(
            procs=procs,
            walltime=walltime,
            ranked=rank_quotes(quotes),
            infeasible=infeasible,
            decided_ms=(time.perf_counter() - started) * 1e3,
        )
        self.metrics.record_route(time.perf_counter() - started, ok=ok)
        return decision

    # ----------------------------------------------------------- inspection

    def describe(self) -> str:
        """One line per site: endpoint, queues, breaker state."""
        lines = []
        for name in sorted(self.backends):
            backend = self.backends[name]
            spec = backend.spec
            queues = ",".join(sorted(spec.queues))
            line = (
                f"{name}: {backend.endpoint} queues=[{queues}] "
                f"breaker={backend.breaker.state}"
            )
            if backend.failed_over:
                line += " (failed over from " + f"{spec.host}:{spec.port})"
            elif spec.standby is not None:
                line += f" standby={spec.standby}"
            lines.append(line)
        return "\n".join(lines)

    def sites_payload(self) -> List[dict]:
        """JSON-ready registry view for the ``sites`` op."""
        payload = []
        for name in sorted(self.backends):
            backend = self.backends[name]
            spec = backend.spec
            payload.append({
                "name": name,
                "host": spec.host,
                "port": spec.port,
                "standby": spec.standby,
                "endpoint": backend.endpoint,
                "failed_over": backend.failed_over,
                "queues": {
                    queue: {
                        "max_procs": limit.max_procs,
                        "max_runtime": limit.max_runtime,
                    }
                    for queue, limit in sorted(spec.queues.items())
                },
                "breaker": backend.breaker.state,
                "cache_entries": len(backend.cache),
            })
        return payload

    async def close(self) -> None:
        await asyncio.gather(
            *(backend.close() for backend in self.backends.values()),
            return_exceptions=True,
        )


def build_route_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp route",
        description="ask where to submit a job (broker daemon or --site specs)",
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="broker daemon host (ignored with --site)")
    parser.add_argument("--port", type=int, default=7079,
                        help="broker daemon port (ignored with --site)")
    add_site_args(parser)
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


def main(argv: Optional[List[str]] = None) -> int:
    args = build_route_parser().parse_args(argv)
    sites = sites_from_args(args)
    if sites:
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
        print(json.dumps(decision, indent=2, sort_keys=True))
    else:
        print(_format_route(decision))
    return 0 if decision.get("best") is not None else 1
