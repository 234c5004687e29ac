"""The broker's site registry: which queues exist, where, with what limits.

A :class:`SiteSpec` names one forecast daemon (host/port) and the queues
it serves, each with the site's *published constraints* — the same
:class:`~repro.scheduler.constraints.QueueLimit` table the scheduler
substrate enforces (max processor count, max walltime).  The ranking
engine uses these limits to discard infeasible queues before a single
byte goes over the wire: a 256-node job never fans out to a 128-node
queue.

Specs come from two places:

* ``--site name=host:port[:queue,queue...][@standby_host:standby_port]``
  CLI arguments (limits unconstrained; queues default to ``normal``),
  parsed by :func:`parse_site_arg`;
* a JSON registry file (limits included), loaded by
  :func:`load_sites_file`::

      {"sites": [{"name": "sdsc", "host": "127.0.0.1", "port": 7077,
                  "standby": {"host": "127.0.0.1", "port": 7078},
                  "queues": {"normal": {"max_procs": 128,
                                        "max_runtime": 86400}}}]}

A ``standby`` names the site's warm replication follower (see
:mod:`repro.fleet`).  When the site's circuit breaker opens, the broker
promotes the standby and rewires the backend to it instead of serving
stale cache entries until an operator intervenes.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.scheduler.constraints import QueueLimit

__all__ = [
    "DEFAULT_QUEUE",
    "SiteSpec",
    "add_site_args",
    "load_sites_file",
    "parse_site_arg",
    "sites_from_args",
]

#: Queue assumed when a site spec names none.
DEFAULT_QUEUE = "normal"


@dataclass(frozen=True)
class SiteSpec:
    """One forecast daemon and its published queue constraint table."""

    name: str
    host: str
    port: int
    queues: Dict[str, QueueLimit] = field(
        default_factory=lambda: {DEFAULT_QUEUE: QueueLimit()}
    )
    #: Warm follower to promote when this site's breaker opens (optional).
    standby_host: Optional[str] = None
    standby_port: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("site name must be non-empty")
        if not (0 < self.port < 65536):
            raise ValueError(f"site {self.name!r}: bad port {self.port}")
        if not self.queues:
            raise ValueError(f"site {self.name!r} declares no queues")
        if self.standby_port is not None and not (0 < self.standby_port < 65536):
            raise ValueError(
                f"site {self.name!r}: bad standby port {self.standby_port}"
            )

    @property
    def standby(self) -> Optional[str]:
        """``host:port`` of the standby, or None."""
        if self.standby_port is None:
            return None
        return f"{self.standby_host or self.host}:{self.standby_port}"


def parse_site_arg(spec: str) -> SiteSpec:
    """Parse ``name=host:port[:queues][@standby_host:standby_port]``."""
    name, sep, rest = spec.partition("=")
    if not sep or not name:
        raise ValueError(f"bad site spec {spec!r} (want name=host:port[:queues])")
    rest, _at, standby_text = rest.partition("@")
    standby_host: Optional[str] = None
    standby_port: Optional[int] = None
    if standby_text:
        sb_host, sb_sep, sb_port_text = standby_text.rpartition(":")
        try:
            standby_port = int(sb_port_text if sb_sep else standby_text)
        except ValueError:
            raise ValueError(
                f"bad site spec {spec!r}: standby {standby_text!r}"
            ) from None
        standby_host = sb_host or None
    parts = rest.split(":")
    if len(parts) < 2:
        raise ValueError(f"bad site spec {spec!r} (want name=host:port[:queues])")
    host, port_text = parts[0], parts[1]
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"bad site spec {spec!r}: port {port_text!r}") from None
    queue_names = [DEFAULT_QUEUE]
    if len(parts) > 2 and parts[2]:
        queue_names = [q for q in parts[2].split(",") if q]
    return SiteSpec(
        name=name,
        host=host or "127.0.0.1",
        port=port,
        queues={queue: QueueLimit() for queue in queue_names},
        standby_host=standby_host,
        standby_port=standby_port,
    )


def load_sites_file(path: Union[str, Path]) -> List[SiteSpec]:
    """Load a JSON registry file (see module docstring for the shape)."""
    raw = json.loads(Path(path).read_text())
    entries = raw.get("sites") if isinstance(raw, dict) else raw
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{path}: expected a non-empty 'sites' list")
    specs: List[SiteSpec] = []
    for entry in entries:
        queues: Dict[str, QueueLimit] = {}
        for queue, limits in (entry.get("queues") or {}).items():
            queues[queue] = QueueLimit(
                max_procs=limits.get("max_procs"),
                max_runtime=limits.get("max_runtime"),
            )
        standby = entry.get("standby") or {}
        specs.append(
            SiteSpec(
                name=entry["name"],
                host=entry.get("host", "127.0.0.1"),
                port=int(entry["port"]),
                queues=queues or {DEFAULT_QUEUE: QueueLimit()},
                standby_host=standby.get("host"),
                standby_port=(
                    int(standby["port"]) if "port" in standby else None
                ),
            )
        )
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"{path}: duplicate site names in registry")
    return specs


def add_site_args(parser: argparse.ArgumentParser) -> None:
    """The ``--site``/``--sites-file`` flags ``broker`` and ``route`` share."""
    parser.add_argument(
        "--site", action="append", default=[], metavar="NAME=HOST:PORT[:QUEUES]",
        help="a forecast daemon to route over (repeatable); queues default "
        "to 'normal'",
    )
    parser.add_argument(
        "--sites-file", default=None, metavar="PATH",
        help="JSON site registry with per-queue limits (see docs/broker.md)",
    )


def sites_from_args(args: argparse.Namespace) -> List[SiteSpec]:
    sites = [parse_site_arg(spec) for spec in args.site]
    if args.sites_file is not None:
        sites.extend(load_sites_file(args.sites_file))
    return sites
