"""The broker daemon's wire surface: NDJSON ops, HTTP GET, ``/metrics``.

Spawns a real ``python -m repro broker`` subprocess whose sites point at a
dead port, which exercises the whole protocol path (including graceful
``none`` quotes) without needing live forecast daemons.
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.server import read_port_file


def spawn_broker(state_dir, *extra_args):
    args = [
        sys.executable, "-m", "repro", "broker",
        "--host", "127.0.0.1", "--port", "0",
        "--state-dir", str(state_dir),
        *extra_args,
    ]
    return subprocess.Popen(
        args, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )


@pytest.fixture
def broker_port(tmp_path):
    """A running broker subprocess routing over two dead sites; yields port."""
    state_dir = tmp_path / "broker"
    state_dir.mkdir()
    process = spawn_broker(
        state_dir,
        "--site", "a=127.0.0.1:1",
        "--site", "b=127.0.0.1:1",
        "--request-timeout", "0.05",
        "--retries", "0",
    )
    try:
        yield read_port_file(state_dir)
    finally:
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=10.0)
            except Exception:
                process.kill()
                process.wait()


def ndjson(port, *payloads):
    """One connection, pipelined requests, parsed replies in order."""
    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        stream = sock.makefile("rwb")
        replies = []
        for payload in payloads:
            stream.write(json.dumps(payload).encode() + b"\n")
            stream.flush()
            replies.append(json.loads(stream.readline()))
        return replies


def test_ndjson_ops_and_error_model(broker_port):
    healthz, sites, route, unknown, bad = ndjson(
        broker_port,
        {"op": "healthz", "id": 1},
        {"op": "sites"},
        {"op": "route", "procs": 2, "walltime": 600},
        {"op": "frobnicate"},
        {"op": "route", "procs": 0},
    )
    assert healthz["ok"] and healthz["id"] == 1
    assert healthz["result"]["status"] == "ok"
    assert healthz["result"]["sites"] == 2

    names = [site["name"] for site in sites["result"]["sites"]]
    assert names == ["a", "b"]

    decision = route["result"]
    assert decision["best"] is None  # both sites dead, no history anywhere
    assert len(decision["ranked"]) == 2
    assert all(q["source"] == "none" for q in decision["ranked"])
    assert all(q["stale"] for q in decision["ranked"])

    assert not unknown["ok"]
    assert unknown["error"]["code"] == "unknown-op"
    assert not bad["ok"]
    assert bad["error"]["code"] == "bad-request"


def test_describe_and_metrics_ops(broker_port):
    describe, metrics = ndjson(
        broker_port, {"op": "describe"}, {"op": "metrics"}
    )
    assert "a: 127.0.0.1:1" in describe["result"]["text"]
    snapshot = metrics["result"]
    assert "routes" in snapshot and "quote_sources" in snapshot


def test_http_route_sites_and_404(broker_port):
    base = f"http://127.0.0.1:{broker_port}"
    with urllib.request.urlopen(f"{base}/route?procs=2&walltime=600",
                                timeout=10.0) as response:
        payload = json.loads(response.read())
    assert payload["ok"]
    assert payload["result"]["best"] is None
    assert len(payload["result"]["ranked"]) == 2

    with urllib.request.urlopen(f"{base}/sites", timeout=10.0) as response:
        sites = json.loads(response.read())
    assert [s["name"] for s in sites["result"]["sites"]] == ["a", "b"]

    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(f"{base}/nope", timeout=10.0)
    with err.value:  # the error holds the response and its socket
        assert err.value.code == 404


def test_http_metrics_is_parseable_prometheus_text(broker_port):
    # Drive one route first so the counters are non-trivial.
    ndjson(broker_port, {"op": "route", "procs": 2})
    url = f"http://127.0.0.1:{broker_port}/metrics"
    with urllib.request.urlopen(url, timeout=10.0) as response:
        assert response.headers["Content-Type"].startswith("text/plain")
        body = response.read().decode()
    lines = [line for line in body.splitlines() if line.strip()]
    assert lines
    # The scrape contract: every line is a comment or a bmbp_ family.
    assert all(
        line.startswith("#") or line.startswith("bmbp_") for line in lines
    )
    samples = {line.split(" ")[0].partition("{")[0]
               for line in lines if not line.startswith("#")}
    assert "bmbp_broker_routes_total" in samples
    assert "bmbp_broker_quotes_total" in samples
    for line in lines:
        if line.startswith("bmbp_broker_routes_total "):
            assert float(line.split(" ")[1]) >= 1.0


def test_route_cli_against_the_daemon(broker_port):
    result = subprocess.run(
        [sys.executable, "-m", "repro", "route",
         "--port", str(broker_port), "--procs", "2", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1  # no usable bound from dead sites
    payload = json.loads(result.stdout)
    assert payload["best"] is None
    assert len(payload["ranked"]) == 2


def test_broker_cli_requires_sites():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "broker"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "--site" in result.stderr
