"""Unit tests for the wire protocol and the metrics primitives."""

import json

import pytest

from repro.server.metrics import LatencyHistogram, ServerMetrics
from repro.server.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    encode,
    error_response,
    http_request_to_op,
    looks_like_http,
    ok_response,
    parse_http_request_line,
    parse_request,
)


def parse(obj) -> dict:
    return parse_request(json.dumps(obj).encode())


class TestParseRequest:
    def test_submit_roundtrip(self):
        request = parse(
            {"op": "submit", "id": 3, "job": "a", "queue": "q", "procs": 4,
             "now": 12.5}
        )
        assert request == {
            "op": "submit", "id": 3, "job": "a", "queue": "q", "procs": 4,
            "now": 12.5,
        }

    def test_now_is_optional_and_validated(self):
        assert parse({"op": "start", "job": "a"})["now"] is None
        with pytest.raises(ProtocolError) as err:
            parse({"op": "start", "job": "a", "now": "yesterday"})
        assert err.value.code == "bad-request"

    def test_bad_json(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(b"{nope\n")
        assert err.value.code == "bad-json"

    def test_non_object(self):
        with pytest.raises(ProtocolError) as err:
            parse_request(b"[1,2]\n")
        assert err.value.code == "bad-request"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            parse({"op": "frobnicate"})
        assert err.value.code == "unknown-op"

    def test_missing_fields(self):
        for bad in (
            {"op": "submit", "job": "a", "queue": "q"},  # no procs
            {"op": "submit", "job": "a", "procs": 1},  # no queue
            {"op": "start"},  # no job
            {"op": "forecast"},  # no queue
            {"op": "outlook"},  # no queue
        ):
            with pytest.raises(ProtocolError) as err:
                parse(bad)
            assert err.value.code == "bad-request"

    def test_type_validation(self):
        for bad in (
            {"op": "submit", "job": 7, "queue": "q", "procs": 1},
            {"op": "submit", "job": "a", "queue": "q", "procs": "four"},
            {"op": "submit", "job": "a", "queue": "q", "procs": True},
            {"op": "submit", "job": "a", "queue": "q", "procs": 0},
            {"op": "forecast", "queue": "q", "procs": -1},
        ):
            with pytest.raises(ProtocolError):
                parse(bad)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("template", [
        '{"op": "submit", "job": "a", "queue": "q", "procs": 1, "now": %s}',
        '{"op": "start", "job": "a", "now": %s}',
        '{"op": "forecast", "queue": "q", "procs": %s}',
    ])
    def test_non_finite_numbers_rejected(self, template, literal):
        with pytest.raises(ProtocolError) as err:
            parse_request((template % literal).encode())
        assert err.value.code == "bad-request"

    def test_non_finite_query_number_rejected(self):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ProtocolError) as err:
                http_request_to_op("GET", "/route", {"walltime": value},
                                   routes={"/route": "route"})
            assert err.value.code == "bad-request"

    def test_oversized_line_rejected(self):
        line = b'{"op": "healthz", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}'
        with pytest.raises(ProtocolError) as err:
            parse_request(line)
        assert err.value.code == "bad-request"

    def test_every_op_is_parseable(self):
        fields = {
            "submit": {"job": "a", "queue": "q", "procs": 1},
            "start": {"job": "a"},
            "cancel": {"job": "a"},
            "forecast": {"queue": "q"},
            "outlook": {"queue": "q"},
        }
        for op in OPS:
            assert parse({"op": op, **fields.get(op, {})})["op"] == op


class TestResponses:
    def test_ok_and_error_shapes(self):
        assert ok_response(1, {"x": 2}) == {"id": 1, "ok": True, "result": {"x": 2}}
        err = error_response(None, "bad-json", "nope")
        assert err["ok"] is False and err["error"]["code"] == "bad-json"

    def test_encode_is_one_json_line(self):
        data = encode(ok_response(5, []))
        assert data.endswith(b"\n") and data.count(b"\n") == 1
        assert json.loads(data) == {"id": 5, "ok": True, "result": []}


class TestHttp:
    def test_detection(self):
        assert looks_like_http(b"GET /healthz HTTP/1.1\r\n")
        assert not looks_like_http(b'{"op": "healthz"}\n')

    def test_request_line_parsing(self):
        method, path, query = parse_http_request_line(
            b"GET /forecast?queue=normal&procs=4 HTTP/1.1"
        )
        assert (method, path) == ("GET", "/forecast")
        assert query == {"queue": "normal", "procs": "4"}

    def test_route_mapping(self):
        request = http_request_to_op("GET", "/forecast", {"queue": "q", "procs": "8"})
        assert request["op"] == "forecast"
        assert request["procs"] == 8
        assert http_request_to_op("GET", "/queues", {})["op"] == "queues"

    def test_missing_queue_param(self):
        with pytest.raises(ProtocolError) as err:
            http_request_to_op("GET", "/forecast", {})
        assert err.value.code == "bad-request"

    def test_unroutable(self):
        with pytest.raises(ProtocolError) as err:
            http_request_to_op("GET", "/nope", {})
        assert err.value.code == "http-404"
        with pytest.raises(ProtocolError) as err:
            http_request_to_op("POST", "/healthz", {})
        assert err.value.code == "http-405"


class TestLatencyHistogram:
    def test_quantiles_bracket_observations(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.002)
        hist.observe(1.7)
        assert hist.count == 101
        assert 0.001 <= hist.quantile(0.5) <= 0.005
        assert hist.quantile(0.99) <= 2.5
        assert hist.max == pytest.approx(1.7)

    def test_empty(self):
        hist = LatencyHistogram()
        assert hist.quantile(0.5) is None
        assert hist.snapshot()["p99_ms"] is None

    def test_snapshot_units_are_ms(self):
        hist = LatencyHistogram()
        hist.observe(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["mean_ms"] == pytest.approx(250.0)


class TestServerMetrics:
    def test_error_counting(self):
        metrics = ServerMetrics()
        metrics.record_request("submit", 0.001, True)
        metrics.record_request("submit", 0.002, False, "conflict")
        assert metrics.requests["submit"] == 2
        assert metrics.errors == {"conflict": 1}

    def test_render_text_is_prometheus_shaped(self):
        metrics = ServerMetrics()
        metrics.record_request("forecast", 0.0005, True)
        metrics.record_loop_lag(0.01)
        text = metrics.render_text()
        assert 'bmbp_requests_total{op="forecast"} 1' in text
        assert "bmbp_event_loop_lag_seconds 0.01" in text
        for line in text.splitlines():
            assert line.startswith(("#", "bmbp_"))

    def test_snapshot_includes_forecaster_gauges(self):
        from repro.service import ForecasterConfig, QueueForecaster

        forecaster = QueueForecaster(ForecasterConfig(by_bin=False))
        forecaster.job_submitted("a", "q", 1, now=0.0)
        snap = ServerMetrics().snapshot(forecaster)
        assert snap["pending_jobs"] == 1
        assert "q[all]" in snap["predictor_banks"]
