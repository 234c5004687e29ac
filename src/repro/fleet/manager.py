"""Fleet process manager: spawn, kill, promote, and stop shard members.

The manager is deliberately dumb about consensus — there is exactly one
follower per shard and promotion is an explicit operation (the broker's
failover path or an operator calls it), so there is no election protocol
to get wrong.  What it does guarantee:

* every member is a real ``repro serve`` subprocess (the same binary and
  recovery path production runs — no in-process shortcuts);
* a killed primary's follower can be promoted and the manager rewires
  the shard's endpoint to it (``primary_port`` always answers mutations);
* ``stop()`` tears everything down even after kills and promotions.

Used by ``bmbp fleet``, the fault scenarios, and the fleet smoke test.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.fleet.topology import FleetTopology
from repro.server.client import ForecastClient, spawn_daemon
from repro.server.daemon import add_forecaster_args, forecaster_argv

__all__ = ["FleetManager", "ShardMember", "main"]


class ShardMember:
    """One running fleet member: its process, role, and state directory."""

    __slots__ = ("shard_id", "role", "state_dir", "process", "port")

    def __init__(self, shard_id: int, role: str, state_dir: Path,
                 process: "subprocess.Popen[bytes]", port: int):
        self.shard_id = shard_id
        self.role = role
        self.state_dir = state_dir
        self.process = process
        self.port = port

    def alive(self) -> bool:
        return self.process.poll() is None


class FleetManager:
    """Spawns and supervises one fleet (see module docstring)."""

    def __init__(
        self,
        fleet_dir: Union[str, Path],
        shard_count: int = 2,
        replicate: bool = True,
        host: str = "127.0.0.1",
        extra_args: Optional[List[str]] = None,
        checkpoint_interval: float = 30.0,
        env: Optional[Dict[str, str]] = None,
        follower_env: Optional[Dict[str, str]] = None,
    ):
        self.topology = FleetTopology(
            fleet_dir, shard_count, host=host, replicate=replicate
        )
        self.extra_args = list(extra_args or [])
        self.checkpoint_interval = checkpoint_interval
        self.env = env
        #: Overrides only the followers' environment (how the fault
        #: scenarios make a follower — and nothing else — lag).
        self.follower_env = follower_env
        self.primaries: Dict[int, ShardMember] = {}
        self.followers: Dict[int, ShardMember] = {}

    # ------------------------------------------------------------- lifecycle

    def start(self, wait: bool = True) -> None:
        """Bring up every shard primary (and follower, when replicating)."""
        topo = self.topology
        topo.ensure_dirs()
        topo.write_manifest()
        for shard_id in range(topo.shard_count):
            self._start_member(shard_id, "primary")
        if topo.replicate:
            for shard_id in range(topo.shard_count):
                self._start_member(shard_id, "follower")
        if wait:
            for member in self.members():
                self._wait_member(member)

    def _shard_args(self, shard_id: int, role: str) -> List[str]:
        topo = self.topology
        args = [
            "--shard-id", str(shard_id),
            "--shard-count", str(topo.shard_count),
        ] + self.extra_args
        if role == "follower":
            primary = self.primaries[shard_id]
            args += [
                "--follow", f"{topo.host}:{primary.port}",
                "--follow-dir", str(primary.state_dir),
            ]
        return args

    def _start_member(self, shard_id: int, role: str) -> ShardMember:
        topo = self.topology
        state_dir = topo.shard_dir(shard_id, role)
        env = self.env
        if role == "follower" and self.follower_env is not None:
            env = dict(env or {})
            env.update(self.follower_env)
        process = spawn_daemon(
            state_dir,
            host=topo.host,
            extra_args=self._shard_args(shard_id, role),
            checkpoint_interval=self.checkpoint_interval,
            env=env,
        )
        port = topo.port_of(shard_id, role)
        member = ShardMember(shard_id, role, state_dir, process, port)
        (self.primaries if role == "primary" else self.followers)[shard_id] = member
        return member

    def _wait_member(self, member: ShardMember, timeout: float = 10.0) -> None:
        with ForecastClient(self.topology.host, member.port,
                            retries=2, backoff=0.05) as client:
            client.wait_until_up(timeout=timeout)

    def members(self) -> List[ShardMember]:
        return list(self.primaries.values()) + list(self.followers.values())

    def endpoints(self) -> Dict[int, int]:
        """shard_id -> current primary port (post-promotion aware)."""
        return {shard_id: m.port for shard_id, m in sorted(self.primaries.items())}

    # -------------------------------------------------------------- failures

    def kill(self, shard_id: int, role: str = "primary",
             sig: int = signal.SIGKILL) -> int:
        """Kill a member the hard way (default SIGKILL: no drain, no
        checkpoint — exactly the failure replication exists for)."""
        member = (self.primaries if role == "primary" else self.followers)[shard_id]
        member.process.send_signal(sig)
        return member.process.wait(timeout=15.0)

    def promote(self, shard_id: int, timeout: float = 10.0) -> Dict[str, object]:
        """Promote shard ``shard_id``'s follower to primary.

        The promoted process catches up from the dead primary's journal
        segments on disk (see ``ForecastServer._promote``), then the
        manager rewires the shard's endpoint to it.  The old primary's
        record is dropped (its process is expected dead or doomed).
        """
        follower = self.followers.pop(shard_id, None)
        if follower is None:
            raise RuntimeError(f"shard {shard_id} has no follower to promote")
        with ForecastClient(self.topology.host, follower.port,
                            retries=3, backoff=0.05) as client:
            client.wait_until_up(timeout=timeout)
            result = client.promote()
        follower.role = "primary"
        self.primaries[shard_id] = follower
        return result

    # ---------------------------------------------------------------- stop

    def stop(self, timeout: float = 15.0) -> None:
        members = self.members()
        for member in members:
            if member.alive():
                member.process.terminate()
        deadline = time.monotonic() + timeout
        for member in members:
            if member.process.poll() is None:
                remaining = max(0.1, deadline - time.monotonic())
                try:
                    member.process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    member.process.kill()
                    member.process.wait()
        self.primaries.clear()
        self.followers.clear()

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp fleet",
        description="run a sharded, replicated fleet of forecast daemons",
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
    add_forecaster_args(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_fleet_parser().parse_args(argv)
    if args.status:
        topology = FleetTopology.load(args.dir)
        print(json.dumps(topology.describe(), indent=2))
        return 0
    manager = FleetManager(
        args.dir, shard_count=args.shards, replicate=not args.no_replicate,
        host=args.host, extra_args=forecaster_argv(args),
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

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, _signal_handler)

    print("fleet up; Ctrl-C to stop", flush=True)
    try:
        while not stop["flag"]:
            time.sleep(0.25)
    finally:
        manager.stop()
    return 0
