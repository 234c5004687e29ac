"""The daemon shell's socket paths, driven against both daemons built on it.

Each test starts a real listener in-process (the forecast daemon, or the
routing broker over one dead site), talks to it over a TCP socket, and
stops it: line framing, the drain, the port file and the HTTP error body
are the shell's, so both daemons must behave the same.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.broker import BrokerConfig, BrokerServer, SiteSpec
from repro.server import protocol
from repro.server.daemon import ForecastServer, ServerConfig
from repro.server.shell import PORT_FILE_NAME


def _forecast(**shell):
    return ForecastServer(ServerConfig(**shell))


def _broker(**shell):
    return BrokerServer(BrokerConfig(
        sites=[SiteSpec(name="a", host="127.0.0.1", port=1)],
        request_timeout=0.05, retries=0, **shell,
    ))


DAEMONS = {"forecast": _forecast, "broker": _broker}


@pytest.fixture(params=sorted(DAEMONS))
def make_daemon(request):
    return DAEMONS[request.param]


def run(make_daemon, scenario, **shell):
    """Start a daemon in a fresh loop, run ``scenario(daemon)``, stop it.

    Returns the scenario's result and every call the loop's exception
    handler received (a cancelled connection must not produce one).
    """
    errors = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        daemon = make_daemon(**shell)
        await daemon.start()
        try:
            return await scenario(daemon)
        finally:
            await asyncio.wait_for(daemon.stop(), timeout=30.0)

    return asyncio.run(main()), errors


async def _connect(daemon):
    return await asyncio.open_connection(
        "127.0.0.1", daemon.port, limit=protocol.MAX_LINE_BYTES
    )


def _request(request_id):
    return json.dumps({"op": "healthz", "id": request_id}).encode() + b"\n"


def test_oversize_line_gets_bad_request_then_eof(make_daemon):
    async def scenario(daemon):
        reader, writer = await _connect(daemon)
        writer.write(
            b'{"op": "healthz", "pad": "' + b"x" * protocol.MAX_LINE_BYTES
            + b'"}\n'
        )
        await writer.drain()
        reply = json.loads(await reader.readline())
        rest = await reader.read()
        writer.close()
        return reply, rest

    (reply, rest), errors = run(make_daemon, scenario)
    assert reply["ok"] is False
    assert reply["error"]["code"] == "bad-request"
    assert rest == b""
    assert errors == []


def test_blank_lines_between_requests_are_skipped(make_daemon):
    async def scenario(daemon):
        reader, writer = await _connect(daemon)
        writer.write(b"\n\r\n  \n" + _request(1) + b"\n\n" + _request(2))
        await writer.drain()
        replies = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        return replies

    replies, errors = run(make_daemon, scenario)
    assert [reply["id"] for reply in replies] == [1, 2]
    assert all(reply["ok"] for reply in replies)
    assert errors == []


def test_stop_cancels_an_idle_connection_after_the_drain_timeout(
    make_daemon, tmp_path
):
    """An idle NDJSON client cannot hold shutdown past ``drain_timeout``
    (the ceiling in ``run`` is 30 s, against a 0.2 s drain); the drain
    cancels its connection quietly, closes it and removes the port file."""
    state_dir = tmp_path / "state"

    async def scenario(daemon):
        port_file = (state_dir / PORT_FILE_NAME).read_text()
        reader, writer = await _connect(daemon)
        writer.write(_request(1))
        await writer.drain()
        reply = json.loads(await reader.readline())
        await asyncio.wait_for(daemon.stop(), timeout=30.0)
        rest = await reader.read()
        writer.close()
        return port_file, reply, rest, daemon._connections

    (port_file, reply, rest, open_after), errors = run(
        make_daemon, scenario, drain_timeout=0.2, state_dir=state_dir
    )
    assert reply["ok"] is True
    assert rest == b""  # the daemon closed the idle connection
    assert not open_after
    assert errors == []
    assert port_file.strip().isdigit()
    assert not (state_dir / PORT_FILE_NAME).exists()


@pytest.mark.parametrize("request_line, status, code, message", [
    (b"GET /nope HTTP/1.1", 404, "http-404", "no such path '/nope'"),
    (b"POST /healthz HTTP/1.1", 405, "http-405", "method POST not allowed"),
])
def test_http_errors_share_one_json_body(
    make_daemon, request_line, status, code, message
):
    async def scenario(daemon):
        reader, writer = await _connect(daemon)
        writer.write(request_line + b"\r\nHost: localhost\r\n\r\n")
        await writer.drain()
        response = await reader.read()
        writer.close()
        return response

    response, errors = run(make_daemon, scenario)
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.split(b"\r\n")[0].split(b" ")[1] == str(status).encode()
    assert b"Content-Type: application/json" in head
    assert json.loads(body) == {
        "ok": False, "error": {"code": code, "message": message},
    }
    assert errors == []


def test_default_configs_use_the_fixed_settings(tmp_path):
    """Default daemons run with the fixed values docs/server.md and
    docs/broker.md state: burst cap 128, a checkpoint every 1000 events,
    64-deep request queues, 4 MiB journal segments; 4 pooled connections
    and a breaker that opens after 3 failures per broker backend."""
    from repro.server import daemon as daemon_module

    async def scenario(daemon):
        return daemon.store.segment_bytes

    segment_bytes, _ = run(_forecast, scenario, state_dir=str(tmp_path))
    assert segment_bytes == 4 << 20
    assert (
        daemon_module.MAX_BATCH,
        daemon_module.CHECKPOINT_EVENTS,
        daemon_module.MAX_REQUEST_QUEUE,
    ) == (128, 1000, 64)

    backend = _broker().broker.backends["a"]
    assert backend.pool.size == 4
    assert backend.breaker.failure_threshold == 3
