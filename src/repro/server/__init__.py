"""Network layer: the BMBP forecast daemon and its ecosystem.

The paper frames BMBP as an *online* service — a user submits a job and
immediately learns "95% sure your job starts within X seconds".  This
subpackage is the process that actually answers that question for a live
batch system, stdlib-only (asyncio; no new runtime dependencies):

* :mod:`daemon` — the asyncio TCP server (``repro serve``): one
  :class:`~repro.service.forecaster.QueueForecaster` behind a
  newline-delimited JSON protocol, with HTTP GET for the read paths,
  bounded per-connection request queues, graceful SIGTERM drain, and
  crash-safe durability.
* :mod:`protocol` — the wire format and its validation.
* :mod:`state` — atomic checkpoints + write-ahead event journal; a
  ``kill -9`` between checkpoints loses nothing that was acknowledged.
* :mod:`metrics` — request/latency/loop-lag/durability metrics, served
  as JSON (``metrics`` op) and Prometheus text (``GET /metrics``).
* :mod:`client` — synchronous client library with reconnect + backoff,
  and :func:`~repro.server.client.spawn_daemon` to start a real daemon
  subprocess.
* :mod:`tail` — feed a daemon from an SWF trace file at any speedup
  (``repro tail``).
"""

from repro.server.client import (
    ForecastClient,
    ServerError,
    TransportError,
    read_port_file,
    spawn_daemon,
)
from repro.server.daemon import ForecastServer, ServerConfig, serve
from repro.server.metrics import LatencyHistogram, ServerMetrics
from repro.server.protocol import ProtocolError
from repro.server.state import StateError, StateStore, apply_event
from repro.server.tail import tail_swf, tail_trace

__all__ = [
    "ForecastClient",
    "ForecastServer",
    "LatencyHistogram",
    "ProtocolError",
    "ServerConfig",
    "ServerError",
    "ServerMetrics",
    "StateError",
    "StateStore",
    "TransportError",
    "apply_event",
    "read_port_file",
    "serve",
    "spawn_daemon",
    "tail_swf",
    "tail_trace",
]
