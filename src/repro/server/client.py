"""Synchronous client for the forecast daemon.

A thin, dependency-free socket client speaking the NDJSON protocol:

    >>> with ForecastClient("127.0.0.1", 7077) as client:
    ...     client.submit("job-1", queue="normal", procs=8)
    ...     client.forecast("normal", procs=8)

Transport failures (connection refused/reset, timeouts) are retried with
exponential backoff and a fresh connection, which makes the client robust
across daemon restarts.  Server-side *semantic* errors — a structured
``{"ok": false}`` response — raise :class:`ServerError` immediately and
are never retried: the request reached the server and was rejected.

Retries give at-least-once delivery, so a mutation whose acknowledgement
was lost may be re-applied; ``submit`` treats the resulting ``conflict``
on a retry attempt as success (the job *is* pending, which is what the
caller asked for).  A retried ``start`` whose first attempt was applied
surfaces as ``unknown-job`` — the ambiguity is left to the caller, since
the job may genuinely be unknown.

With ``keepalive=N`` a connection that sat idle longer than N seconds is
health-pinged (one ``healthz`` round-trip) before the next real request;
a rotten connection is dropped and redialed instead of costing a retried
mutation.  The paced log tail uses this — at low speedups minutes can
pass between events.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.server.daemon import PORT_FILE_NAME

__all__ = [
    "ForecastClient",
    "ServerError",
    "TransportError",
    "read_port_file",
    "spawn_daemon",
]


class ServerError(Exception):
    """The server answered with a structured error (never retried)."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.message = message


class TransportError(Exception):
    """The server could not be reached after all retry attempts."""


def read_port_file(
    state_dir: Union[str, Path], timeout: float = 10.0
) -> int:
    """Poll a daemon state directory for its bound port.

    The daemon writes ``server.port`` after binding; this is how tests and
    the tail shim discover an ephemeral ``--port 0`` listener.
    """
    path = Path(state_dir) / PORT_FILE_NAME
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            text = path.read_text().strip()
            if text:
                return int(text)
        except (OSError, ValueError):
            pass
        time.sleep(0.02)
    raise TransportError(f"no port file appeared in {state_dir} within {timeout}s")


def spawn_daemon(
    state_dir: Union[str, Path],
    host: str = "127.0.0.1",
    extra_args: Optional[List[str]] = None,
    checkpoint_interval: float = 30.0,
    env: Optional[Dict[str, str]] = None,
) -> "subprocess.Popen[bytes]":
    """Start a real ``repro serve`` subprocess on an ephemeral port.

    The caller discovers the port with :func:`read_port_file` and is
    responsible for terminating the process.  ``env`` entries are merged
    over the inherited environment (how the fault-injection scenarios pass
    ``BMBP_FAULTS`` schedules to the daemon).  Used by the broker
    evaluation, the fleet manager, the smoke test, and the crash-recovery
    tests.
    """
    # A previous daemon's port file would be read as the new port before
    # the new process binds; make sure discovery waits for the fresh one.
    try:
        (Path(state_dir) / PORT_FILE_NAME).unlink()
    except OSError:
        pass
    args = [
        sys.executable, "-m", "repro", "serve",
        "--host", host, "--port", "0",
        "--state-dir", str(state_dir),
        "--checkpoint-interval", str(checkpoint_interval),
    ]
    args.extend(extra_args or [])
    merged_env = None
    if env:
        merged_env = dict(os.environ)
        merged_env.update(env)
    return subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        env=merged_env,
    )


class ForecastClient:
    """Blocking NDJSON client with reconnect + exponential backoff."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7077,
        timeout: float = 10.0,
        retries: int = 5,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        keepalive: Optional[float] = None,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_backoff = max_backoff
        #: Idle seconds after which the next request health-pings the pooled
        #: connection first (None = off).  A connection that sat idle past a
        #: NAT/firewall/server drain window fails the cheap ping and is
        #: redialed, instead of burning a real request to discover the rot.
        self.keepalive = keepalive
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._last_used = 0.0

    # ------------------------------------------------------------ transport

    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._file = sock.makefile("rwb")
        self._last_used = time.monotonic()

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ForecastClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, line: bytes) -> Any:
        """Write one request line, read one response line (no retry)."""
        self._file.write(line)
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ConnectionResetError("server closed the connection")
        self._last_used = time.monotonic()
        return json.loads(raw)

    def ping(self) -> bool:
        """Health-check the current pooled connection with one ``healthz``.

        Returns ``False`` (and drops the connection) instead of raising, so
        callers can probe before committing a mutation.  Never dials: a
        closed client stays closed.
        """
        if self._file is None:
            return False
        try:
            response = self._roundtrip(b'{"op":"healthz"}\n')
        except (OSError, ValueError):
            self.close()
            return False
        return bool(response.get("ok"))

    def _maybe_keepalive(self) -> None:
        """Ping (and drop, if rotten) a connection idle past ``keepalive``."""
        if (
            self.keepalive is not None
            and self._file is not None
            and time.monotonic() - self._last_used > self.keepalive
        ):
            self.ping()

    def _request(self, op: str, **fields: Any) -> Any:
        """One round-trip with transport-level retry; returns ``result``."""
        payload = {"op": op}
        payload.update({k: v for k, v in fields.items() if v is not None})
        line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
        delay = self.backoff
        last_error: Optional[Exception] = None
        self._maybe_keepalive()
        for attempt in range(self.retries + 1):
            try:
                if self._file is None:
                    self._connect()
                response = self._roundtrip(line)
            except (OSError, ValueError) as exc:
                last_error = exc
                self.close()
                if attempt < self.retries:
                    time.sleep(delay)
                    delay = min(delay * 2, self.max_backoff)
                continue
            if response.get("ok"):
                return response.get("result")
            error = response.get("error") or {}
            code = error.get("code", "internal")
            # A lost ack then a retry makes 'submit' race itself; the job
            # being pending is exactly the requested outcome.
            if code == "conflict" and op == "submit" and attempt > 0:
                return {"job": fields.get("job"), "bound": None, "retried": True}
            raise ServerError(code, error.get("message", ""))
        raise TransportError(
            f"could not reach {self.host}:{self.port} after "
            f"{self.retries + 1} attempts: {last_error!r}"
        )

    # ------------------------------------------------------------- mutations

    def submit(
        self, job: str, queue: str, procs: int = 1, now: Optional[float] = None
    ) -> Optional[float]:
        """Submit a job; returns the quoted bound (None while training)."""
        return self._request("submit", job=job, queue=queue, procs=procs, now=now)[
            "bound"
        ]

    def start(self, job: str, now: Optional[float] = None) -> float:
        """Report that a job started; returns its measured wait."""
        return self._request("start", job=job, now=now)["wait"]

    def cancel(self, job: str) -> bool:
        return self._request("cancel", job=job)["cancelled"]

    # --------------------------------------------------------------- queries

    def forecast(self, queue: str, procs: Optional[int] = None) -> Optional[float]:
        return self._request("forecast", queue=queue, procs=procs)["bound"]

    def outlook(self, queue: str) -> Dict[str, Any]:
        return self._request("outlook", queue=queue)

    def queues(self) -> Dict[str, Any]:
        return self._request("queues")

    def describe(self) -> str:
        return self._request("describe")["text"]

    def healthz(self) -> Dict[str, Any]:
        return self._request("healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._request("metrics")

    # ----------------------------------------------------------------- admin

    def refit(self, now: Optional[float] = None) -> int:
        return self._request("refit", now=now)["refit"]

    def checkpoint(self) -> int:
        return self._request("checkpoint")["seq"]

    def shards(self) -> Dict[str, Any]:
        """The daemon's shard assignment and replication role."""
        return self._request("shards")

    def promote(self) -> Dict[str, Any]:
        """Promote a follower to primary (idempotent on a primary)."""
        return self._request("promote")

    def wait_until_up(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Poll ``healthz`` until the daemon answers (for process spawns)."""
        deadline = time.monotonic() + timeout
        last: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except (TransportError, ServerError) as exc:
                last = exc
                time.sleep(0.05)
        raise TransportError(f"server not up within {timeout}s: {last!r}")
