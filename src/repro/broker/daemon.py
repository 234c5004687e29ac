"""The broker daemon: one :class:`RoutingBroker` behind asyncio TCP.

Same wire framing as the forecast daemon (:mod:`repro.server.protocol`) —
newline-delimited JSON requests plus HTTP/1.1 GET for the read paths —
but a different op set (:data:`~repro.server.protocol.BROKER_OPS`):

* ``route`` — one routing decision (the whole point);
* ``sites`` — the registry with live breaker/cache state;
* ``describe``/``healthz``/``metrics`` — the shared observability trio;
  ``GET /metrics`` renders :class:`~repro.server.metrics.BrokerMetrics`
  through the same Prometheus exposition conventions as the forecast
  daemon, so one scrape config covers both.

The broker holds no durable state (every answer is derived from the
backends and the in-memory SWR cache), so there is no journal — shutdown
is a plain connection drain.  The listener, framing, HTTP layer, drain
and ``server.port`` file are :class:`repro.server.shell.DaemonShell`'s,
shared with the forecast daemon; this module adds the one-request-at-a-
time NDJSON loop and the broker's ops.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.broker.broker import RoutingBroker
from repro.broker.registry import SiteSpec, add_site_args, sites_from_args
from repro.server import protocol
from repro.server.metrics import BrokerMetrics
from repro.server.shell import DaemonShell, run_daemon

__all__ = ["BrokerConfig", "BrokerServer", "main", "serve_broker"]


@dataclass
class BrokerConfig:
    """Everything the broker daemon needs."""

    sites: List[SiteSpec] = field(default_factory=list)
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; resolved port lands in the port file
    state_dir: Optional[Union[str, Path]] = None  # port-file directory only
    request_timeout: float = 0.25
    retries: int = 1
    hedge_after: Optional[float] = None  # None = observed p95 per backend
    cache_ttl: float = 0.5
    breaker_reset: float = 2.0
    drain_timeout: float = 5.0


class BrokerServer(DaemonShell):
    """Asyncio daemon hosting one routing broker."""

    http_routes = protocol.BROKER_HTTP_ROUTES

    def __init__(self, config: BrokerConfig):
        if not config.sites:
            raise ValueError("broker daemon needs at least one --site")
        super().__init__(config)
        self.metrics = BrokerMetrics()
        self.broker = RoutingBroker(
            config.sites,
            metrics=self.metrics,
            request_timeout=config.request_timeout,
            retries=config.retries,
            hedge_after=config.hedge_after,
            cache_ttl=config.cache_ttl,
            breaker_reset=config.breaker_reset,
        )

    async def _shutdown(self) -> None:
        await self.broker.close()

    async def _serve_ndjson(self, first: bytes, reader, writer) -> None:
        line: Optional[bytes] = first
        while line is not None and not self._draining:
            response = await self._process_line(line)
            try:
                writer.write(protocol.encode(response))
                await writer.drain()
            except (ConnectionError, OSError):
                return
            line = await self._read_line(reader, writer)

    # -------------------------------------------------------------- execution

    async def _process_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Any = None
        try:
            request = protocol.parse_request(line, ops=protocol.BROKER_OPS)
            request_id = request["id"]
            result = await self._execute(request)
            return protocol.ok_response(request_id, result)
        except protocol.ProtocolError as exc:
            return protocol.error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - a bug must not kill the daemon
            print(f"bmbp-broker: internal error: {exc!r}", file=sys.stderr)
            return protocol.error_response(
                request_id, "internal", f"internal error: {type(exc).__name__}"
            )

    async def _execute(self, request: Dict[str, Any]) -> Any:
        op = request["op"]
        if op == "route":
            decision = await self.broker.route(
                procs=request["procs"],
                walltime=request["walltime"],
                queue=request["queue"],
                deadline=request["deadline"],
            )
            return decision.to_dict()
        if op == "sites":
            return {"sites": self.broker.sites_payload()}
        if op == "describe":
            return {"text": self.broker.describe()}
        if op == "healthz":
            return {
                "status": "draining" if self._draining else "ok",
                "sites": len(self.broker.backends),
                "routes": self.metrics.routes_total,
            }
        if op == "metrics":
            return self.metrics.snapshot()
        raise protocol.ProtocolError("unknown-op", f"unknown op {op!r}")

    async def _http_result(self, request: Dict[str, Any]) -> Any:
        if request["op"] == "metrics":
            return self.metrics.render_text()
        return await self._execute(request)


def _banner(server: BrokerServer) -> str:
    sites = ", ".join(
        f"{spec.name}={spec.host}:{spec.port}" for spec in server.config.sites
    )
    return (
        f"bmbp-broker: listening on {server.config.host}:{server.port} "
        f"routing over [{sites}]"
    )


def serve_broker(config: BrokerConfig) -> int:
    """Blocking entry point used by ``bmbp broker``."""
    return run_daemon(
        lambda: BrokerServer(config), _banner, "bmbp-broker: drained, bye"
    )


def build_broker_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp broker",
        description="run the multi-site routing broker daemon",
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
    add_site_args(parser)
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
        "--breaker-reset", type=float, default=2.0, metavar="SECONDS",
        help="open-breaker cooldown before a half-open probe (default %(default)s)",
    )
    parser.add_argument("--drain-timeout", type=float, default=5.0, metavar="SECONDS")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_broker_parser().parse_args(argv)
    sites = sites_from_args(args)
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
        breaker_reset=args.breaker_reset,
        drain_timeout=args.drain_timeout,
    ))
