"""Wire protocol: newline-delimited JSON over TCP, plus HTTP/1.1 GET reads.

One request per line, one response per line.  A request is a JSON object
with an ``op`` field naming the operation, operation-specific fields, and
an optional ``id`` the server echoes back (so pipelined clients can match
responses to requests).  Responses are ``{"id": ..., "ok": true,
"result": {...}}`` or ``{"id": ..., "ok": false, "error": {"code": ...,
"message": ...}}``.

Operations:

=========  ========  =====================================================
op         kind      fields
=========  ========  =====================================================
submit     mutation  ``job`` (str), ``queue`` (str), ``procs`` (int >= 1),
                     optional ``now`` (float; server clock if omitted)
start      mutation  ``job``, optional ``now``
cancel     mutation  ``job``
forecast   query     ``queue``, optional ``procs``
outlook    query     ``queue``
queues     query     --
describe   query     --
healthz    query     --
metrics    query     --
refit      admin     optional ``now``
checkpoint admin     --
=========  ========  =====================================================

The routing broker daemon (:mod:`repro.broker.daemon`) reuses this exact
framing with its own op set (:data:`BROKER_OPS`): ``route`` (optional
``procs``/``walltime``/``queue``/``deadline``), ``sites``, plus the shared
``describe``/``healthz``/``metrics``; HTTP GET reads come from
:data:`BROKER_HTTP_ROUTES` (``/route?procs=8&walltime=3600``, ``/sites``).

Read paths are additionally reachable as plain HTTP/1.1 ``GET`` requests
on the same port (``/healthz``, ``/metrics``, ``/forecast?queue=q&procs=4``,
``/outlook?queue=q``, ``/queues``, ``/describe``) so a browser, ``curl``,
or a metrics scraper needs no custom client.  ``/metrics`` answers in a
Prometheus-style text format; every other path answers JSON.

Validation failures raise :class:`ProtocolError` with a stable machine
error ``code``; the daemon turns these into structured error responses
without dropping the connection.
"""

from __future__ import annotations

import json
import math
import zlib
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "ADMIN_OPS",
    "BROKER_HTTP_ROUTES",
    "BROKER_OPS",
    "MAX_LINE_BYTES",
    "MUTATION_OPS",
    "OPS",
    "ProtocolError",
    "QUERY_OPS",
    "encode",
    "error_response",
    "http_request_to_op",
    "looks_like_http",
    "ok_response",
    "parse_http_request_line",
    "parse_request",
    "render_http_response",
    "shard_of",
]

#: Hard cap on one request line; longer lines are a protocol error (and the
#: daemon's stream reader limit, so a hostile client cannot buffer-bomb us).
MAX_LINE_BYTES = 1 << 20

MUTATION_OPS = frozenset({"submit", "start", "cancel"})
QUERY_OPS = frozenset(
    {"forecast", "outlook", "queues", "describe", "healthz", "metrics", "shards"}
)
ADMIN_OPS = frozenset({"refit", "checkpoint", "sync", "promote"})
OPS = MUTATION_OPS | QUERY_OPS | ADMIN_OPS


def shard_of(queue: str, shard_count: int) -> int:
    """The shard that owns ``queue`` in a ``shard_count``-way fleet.

    Part of the wire contract: every router, shard-aware client, and shard
    worker must agree on the mapping, so it is a fixed CRC32 (never
    Python's salted ``hash``) and lives in the protocol module.
    """
    if shard_count < 1:
        raise ValueError(f"shard_count must be at least 1, got {shard_count}")
    return zlib.crc32(queue.encode("utf-8")) % shard_count

#: The routing broker daemon speaks the same framing with its own op set
#: (``route``/``sites`` plus the shared read ops); see repro/broker/daemon.py.
BROKER_OPS = frozenset({"route", "sites", "describe", "healthz", "metrics"})

#: Error codes (stable API, documented in docs/server.md):
#:   bad-json       request line is not valid JSON
#:   bad-request    JSON is valid but malformed (missing/mistyped fields)
#:   unknown-op     unrecognized ``op``
#:   conflict       submit for a job id that is already pending
#:   unknown-job    start/cancel for a job the server has never seen
#:   bad-event      event is semantically impossible (start before submit)
#:   shutting-down  server is draining; no new mutations accepted
#:   wrong-shard    the queue belongs to another shard of the fleet
#:   not-primary    mutation sent to a follower replica (promote it first)
#:   internal       unexpected server-side failure (bug; connection survives)


class ProtocolError(Exception):
    """A malformed or unserviceable request, with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# ------------------------------------------------------------ NDJSON side


def _field(request: Dict[str, Any], name: str, kind, *, required: bool = True):
    value = request.get(name)
    if value is None:
        if required:
            raise ProtocolError("bad-request", f"missing field {name!r}")
        return None
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ProtocolError("bad-request", f"field {name!r} must be a number")
        value = float(value)
        if not math.isfinite(value):  # ``1e999`` decodes to inf
            raise ProtocolError("bad-request", f"field {name!r} must be finite")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ProtocolError("bad-request", f"field {name!r} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ProtocolError(
            "bad-request", f"field {name!r} must be {kind.__name__}"
        )
    return value


def _reject_constant(name: str) -> float:
    raise ProtocolError("bad-request", f"non-finite number {name} is not JSON")


#: ``json.loads`` accepts ``NaN`` and ``±Infinity``; this decoder answers
#: them with ``bad-request``.  Built once: passing the hook to ``loads``
#: would build a decoder per request.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def parse_request(line: bytes, ops: frozenset = OPS) -> Dict[str, Any]:
    """Parse and validate one request line into a normalized request dict.

    The returned dict always has ``op`` and ``id`` keys plus the validated
    operation-specific fields (absent optionals are ``None``).  ``ops``
    selects the daemon's op set (:data:`OPS` for the forecast daemon,
    :data:`BROKER_OPS` for the routing broker).
    """
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError("bad-request", "request line exceeds size limit")
    try:
        if isinstance(line, (bytes, bytearray)):
            line = line.decode(json.detect_encoding(line), "surrogatepass")
        raw = _DECODER.decode(line)
    except (ValueError, UnicodeDecodeError):
        raise ProtocolError("bad-json", "request is not valid JSON") from None
    if not isinstance(raw, dict):
        raise ProtocolError("bad-request", "request must be a JSON object")
    op = raw.get("op")
    if not isinstance(op, str):
        raise ProtocolError("bad-request", "missing or non-string 'op'")
    if op not in ops:
        raise ProtocolError("unknown-op", f"unknown op {op!r}")
    request: Dict[str, Any] = {"op": op, "id": raw.get("id")}
    if op == "submit":
        request["job"] = _field(raw, "job", str)
        request["queue"] = _field(raw, "queue", str)
        procs = _field(raw, "procs", int)
        if procs < 1:
            raise ProtocolError("bad-request", "'procs' must be at least 1")
        request["procs"] = procs
        request["now"] = _field(raw, "now", float, required=False)
    elif op in ("start", "cancel"):
        request["job"] = _field(raw, "job", str)
        if op == "start":
            request["now"] = _field(raw, "now", float, required=False)
    elif op == "forecast":
        request["queue"] = _field(raw, "queue", str)
        procs = _field(raw, "procs", int, required=False)
        if procs is not None and procs < 1:
            raise ProtocolError("bad-request", "'procs' must be at least 1")
        request["procs"] = procs
    elif op == "outlook":
        request["queue"] = _field(raw, "queue", str)
    elif op == "refit":
        request["now"] = _field(raw, "now", float, required=False)
    elif op == "sync":
        from_seq = _field(raw, "from_seq", int, required=False)
        if from_seq is not None and from_seq < 0:
            raise ProtocolError("bad-request", "'from_seq' must be >= 0")
        request["from_seq"] = from_seq if from_seq is not None else 0
    elif op == "route":
        procs = _field(raw, "procs", int, required=False)
        if procs is not None and procs < 1:
            raise ProtocolError("bad-request", "'procs' must be at least 1")
        request["procs"] = procs if procs is not None else 1
        walltime = _field(raw, "walltime", float, required=False)
        if walltime is not None and walltime <= 0:
            raise ProtocolError("bad-request", "'walltime' must be positive")
        request["walltime"] = walltime
        request["queue"] = _field(raw, "queue", str, required=False)
        deadline = _field(raw, "deadline", float, required=False)
        if deadline is not None and deadline <= 0:
            raise ProtocolError("bad-request", "'deadline' must be positive")
        request["deadline"] = deadline
    # queues/sites/shards/describe/healthz/metrics/checkpoint/promote take
    # no fields.
    return request


def ok_response(request_id: Any, result: Any) -> Dict[str, Any]:
    return {"id": request_id, "ok": True, "result": result}


def error_response(request_id: Any, code: str, message: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False, "error": {"code": code, "message": message}}


def encode(response: Dict[str, Any]) -> bytes:
    """One response as a newline-terminated JSON line."""
    return json.dumps(response, separators=(",", ":")).encode("utf-8") + b"\n"


# -------------------------------------------------------------- HTTP side

#: HTTP path -> protocol op for the read-only routes.
_HTTP_ROUTES = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/forecast": "forecast",
    "/outlook": "outlook",
    "/queues": "queues",
    "/describe": "describe",
    "/shards": "shards",
}

#: The broker daemon's HTTP surface (same framing, its own route table).
BROKER_HTTP_ROUTES = {
    "/healthz": "healthz",
    "/metrics": "metrics",
    "/route": "route",
    "/sites": "sites",
    "/describe": "describe",
}

_HTTP_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                     405: "Method Not Allowed"}


def looks_like_http(first_line: bytes) -> bool:
    """Whether a connection's first line is an HTTP request line."""
    return first_line.startswith((b"GET ", b"HEAD ", b"POST ", b"PUT ", b"DELETE "))


def parse_http_request_line(line: bytes) -> Tuple[str, str, Dict[str, str]]:
    """``(method, path, query)`` from an HTTP request line."""
    try:
        method, target, _version = line.decode("latin-1").split(" ", 2)
    except ValueError:
        raise ProtocolError("bad-request", "malformed HTTP request line") from None
    parts = urlsplit(target)
    return method, parts.path, dict(parse_qsl(parts.query))


def _query_int(query: Dict[str, str], name: str) -> Optional[int]:
    if name not in query:
        return None
    try:
        return int(query[name])
    except ValueError:
        raise ProtocolError(
            "bad-request", f"query parameter {name!r} must be an integer"
        ) from None


def _query_float(query: Dict[str, str], name: str) -> Optional[float]:
    if name not in query:
        return None
    try:
        value = float(query[name])
    except ValueError:
        raise ProtocolError(
            "bad-request", f"query parameter {name!r} must be a number"
        ) from None
    if not math.isfinite(value):
        raise ProtocolError(
            "bad-request", f"query parameter {name!r} must be finite"
        )
    return value


def http_request_to_op(
    method: str,
    path: str,
    query: Dict[str, str],
    routes: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Map an HTTP GET to the equivalent protocol request dict.

    ``routes`` selects the daemon's route table (:data:`_HTTP_ROUTES` for
    the forecast daemon by default, :data:`BROKER_HTTP_ROUTES` for the
    broker).  Raises :class:`ProtocolError` with code ``http-404``/
    ``http-405``/``bad-request`` for unroutable requests.
    """
    if method not in ("GET", "HEAD"):
        raise ProtocolError("http-405", f"method {method} not allowed")
    op = (routes if routes is not None else _HTTP_ROUTES).get(path)
    if op is None:
        raise ProtocolError("http-404", f"no such path {path!r}")
    request: Dict[str, Any] = {"op": op, "id": None}
    if op in ("forecast", "outlook"):
        queue = query.get("queue")
        if not queue:
            raise ProtocolError("bad-request", "query parameter 'queue' is required")
        request["queue"] = queue
    if op == "forecast":
        procs = _query_int(query, "procs")
        if procs is not None and procs < 1:
            raise ProtocolError("bad-request", "'procs' must be at least 1")
        request["procs"] = procs
    if op == "route":
        procs = _query_int(query, "procs")
        if procs is not None and procs < 1:
            raise ProtocolError("bad-request", "'procs' must be at least 1")
        request["procs"] = procs if procs is not None else 1
        walltime = _query_float(query, "walltime")
        if walltime is not None and walltime <= 0:
            raise ProtocolError("bad-request", "'walltime' must be positive")
        request["walltime"] = walltime
        request["queue"] = query.get("queue") or None
        deadline = _query_float(query, "deadline")
        if deadline is not None and deadline <= 0:
            raise ProtocolError("bad-request", "'deadline' must be positive")
        request["deadline"] = deadline
    return request


def render_http_response(
    status: int, body: bytes, content_type: str = "application/json"
) -> bytes:
    """A complete ``Connection: close`` HTTP/1.1 response."""
    reason = _HTTP_STATUS_TEXT.get(status, "Error")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}; charset=utf-8\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode("latin-1") + body
