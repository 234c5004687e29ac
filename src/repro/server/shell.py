"""The daemon shell: one listener, drain and HTTP layer for every daemon.

The forecast daemon (:mod:`repro.server.daemon`) and the routing broker
(:mod:`repro.broker.daemon`) share the wire framing of
:mod:`repro.server.protocol`: newline-delimited JSON requests, or one
HTTP/1.1 GET per connection for the read paths, told apart by the
connection's first line.  :class:`DaemonShell` owns everything about
that framing and the process lifecycle that does not depend on what the
daemon serves:

* binding, :attr:`~DaemonShell.port`, and the ``server.port`` file
  written to ``state_dir`` after bind (removed on stop), so tests and
  scripts can discover an ephemeral ``--port 0`` listener;
* one task per connection: an oversize line gets a ``bad-request``
  error and the connection closes (a stream cannot resync mid-line);
  blank lines are skipped;
* HTTP: drain the header block, route the request line, and render
  404/405/400 as the same JSON error body;
* the drain in :meth:`~DaemonShell.stop`: stop accepting, give open
  connections ``drain_timeout`` seconds, then cancel the rest;
* :func:`run_daemon`, the blocking entry point: SIGTERM/SIGINT call
  ``stop()`` and a KeyboardInterrupt exits 0.

A daemon subclasses the shell and supplies its NDJSON conversation
(``_serve_ndjson``), its HTTP answers (``_http_result``) and its
shutdown work (``_shutdown``); it may count connections and HTTP
requests through ``_count_connection``/``_count_http``.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Set

from repro.server import protocol

__all__ = ["PORT_FILE_NAME", "DaemonShell", "run_daemon"]

#: File in the state directory holding the bound port (written after bind,
#: so tests and the tail shim can discover an ephemeral ``--port 0``).
PORT_FILE_NAME = "server.port"

_HTTP_STATUS = {"http-404": 404, "http-405": 405}


def _http_error(exc: protocol.ProtocolError) -> bytes:
    return json.dumps(
        {"ok": False, "error": {"code": exc.code, "message": exc.message}}
    ).encode()


class DaemonShell:
    """Listener, framing and drain shared by the daemons; see the module
    docstring.  ``config`` needs ``host``, ``port``, ``state_dir`` and
    ``drain_timeout``."""

    #: HTTP GET route table (path -> op); ``None`` is the forecast daemon's.
    http_routes: Optional[Dict[str, str]] = None

    def __init__(self, config: Any) -> None:
        self.config = config
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()
        self._draining = False
        # Created in start(): asyncio primitives must bind the running loop.
        self._stopped: Optional[asyncio.Event] = None

    # -------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Bind and begin serving (returns once listening)."""
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        if self.config.state_dir is not None:
            directory = Path(self.config.state_dir)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / PORT_FILE_NAME).write_text(f"{self.port}\n")

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (e.g. via a signal handler)."""
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful drain: no new connections, finish in-flight, shut down."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        if self._connections:
            done, pending = await asyncio.wait(
                self._connections, timeout=self.config.drain_timeout
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        if self._server is not None:
            # From Python 3.12 this also waits for every open connection
            # to close, so it must follow the drain, not precede it.
            await self._server.wait_closed()
        await self._shutdown()
        if self.config.state_dir is not None:
            try:
                (Path(self.config.state_dir) / PORT_FILE_NAME).unlink()
            except OSError:
                pass
        self._stopped.set()

    # ------------------------------------------------------------------ hooks

    async def _shutdown(self) -> None:
        """The daemon's own work once its connections are drained."""

    def _count_connection(self, delta: int) -> None:
        """A connection opened (``+1``) or closed (``-1``)."""

    def _count_http(self) -> None:
        """A connection turned out to carry an HTTP request."""

    async def _serve_ndjson(self, first: bytes, reader, writer) -> None:
        """Answer an NDJSON connection whose first request is ``first``."""
        raise NotImplementedError

    async def _http_result(self, request: Dict[str, Any]) -> Any:
        """The result of a routed HTTP request: a ``str`` is the Prometheus
        text exposition, anything else the JSON ``result``.  A
        :class:`~repro.server.protocol.ProtocolError` answers 400."""
        raise NotImplementedError

    # ------------------------------------------------------------ connections

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        self._count_connection(1)
        try:
            first = await self._read_line(reader, writer)
            if first is not None and protocol.looks_like_http(first):
                await self._serve_http(first, reader, writer)
            elif first is not None:
                await self._serve_ndjson(first, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away; nothing to clean up
        except asyncio.CancelledError:
            # Only the drain in stop() cancels a connection: end quietly.
            # Re-raising makes asyncio.streams (Python <= 3.11) log a
            # spurious callback error for every cancelled connection.
            pass
        finally:
            self._count_connection(-1)
            self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_line(self, reader, writer) -> Optional[bytes]:
        """One request line, or None on EOF/oversize (oversize kills the
        connection after a structured error — there is no way to resync a
        stream mid-line).  Blank lines are skipped."""
        while True:
            try:
                line = await reader.readline()
            except ValueError:
                writer.write(protocol.encode(protocol.error_response(
                    None, "bad-request", "request line exceeds size limit"
                )))
                await writer.drain()
                return None
            if not line:
                return None
            if line.strip():
                return line

    async def _serve_http(self, first: bytes, reader, writer) -> None:
        """One-shot HTTP/1.1 exchange for the read-only routes."""
        self._count_http()
        # Drain the header block; we route on the request line alone.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        content_type = "application/json"
        try:
            method, path, query = protocol.parse_http_request_line(first.strip())
            request = protocol.http_request_to_op(
                method, path, query, routes=self.http_routes
            )
        except protocol.ProtocolError as exc:
            status, body = _HTTP_STATUS.get(exc.code, 400), _http_error(exc)
        else:
            try:
                result = await self._http_result(request)
            except protocol.ProtocolError as exc:
                status, body = 400, _http_error(exc)
            else:
                status = 200
                if isinstance(result, str):
                    content_type = "text/plain; version=0.0.4"
                    body = result.encode()
                else:
                    body = json.dumps({"ok": True, "result": result}).encode()
        writer.write(protocol.render_http_response(status, body, content_type))
        await writer.drain()


def run_daemon(
    make: Callable[[], DaemonShell],
    banner: Callable[[DaemonShell], str],
    farewell: str,
) -> int:
    """Blocking entry point: build a daemon, serve until SIGTERM/SIGINT.

    ``make`` runs inside the event loop (a daemon may create asyncio
    objects when built); ``banner(daemon)`` goes to stderr once it
    listens, ``farewell`` once it has drained.  Exits 0 either way.
    """

    async def main() -> int:
        daemon = make()
        await daemon.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, lambda: loop.create_task(daemon.stop()))
            except NotImplementedError:  # non-Unix platforms
                pass
        print(banner(daemon), file=sys.stderr, flush=True)
        await daemon.serve_forever()
        print(farewell, file=sys.stderr)
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0
