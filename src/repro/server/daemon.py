"""The forecast daemon: one ``QueueForecaster`` behind asyncio TCP.

Single event loop, no threads: the forecaster is only ever touched from
the loop, so every client sees a sequentially consistent view with no
locks.  Each connection gets a reader task feeding a *bounded* request
queue and a worker task draining it — when a client pipelines faster than
the server executes, the queue fills, the reader stops reading, and TCP
flow control pushes the backpressure all the way to the client instead of
letting requests pile up in server memory.

Durability (when a state directory is configured) is delegated to
:class:`repro.server.state.StateStore`: every applied mutation is
journaled and flushed *before* its acknowledgement is sent, checkpoints
happen periodically (every ``checkpoint_interval`` seconds and every
:data:`CHECKPOINT_EVENTS` journaled events), and boot recovers
checkpoint + journal.  The worker drains its queue in bursts of up to
:data:`MAX_BATCH` requests and group commits them — one journal write +
flush covers the whole burst, and no response is written until that
flush returns — which keeps the apply→journal→ack contract per event
while amortising the flush across a pipelined burst.  On SIGTERM/SIGINT the daemon drains: it stops accepting
connections, lets in-flight requests finish (bounded by
``drain_timeout``), takes a final checkpoint, and exits 0.  The listener,
the line framing, the HTTP layer and the drain are
:class:`repro.server.shell.DaemonShell`'s, shared with the routing broker.

**Fleet roles.**  The same daemon binary serves three jobs for
:mod:`repro.fleet`:

* *Sharded primary* (``shard_id``/``shard_count`` set): owns the queues
  whose ``protocol.shard_of`` hash maps to it, and answers
  ``wrong-shard`` for the rest so a misrouted client can correct itself.
* *Replication source*: a ``sync`` request turns that connection into a
  journal tail — the subscriber receives a snapshot if it is behind the
  compaction horizon, then every journal entry as it commits, plus
  heartbeats carrying the primary's current seq.
* *Warm follower* (``follow`` set): connects to its primary, applies the
  streamed entries through the same :func:`repro.server.state.apply_event`
  used everywhere else, journals them under the primary's sequence
  numbers, rejects mutations with ``not-primary``, and reports
  ``replication_lag_seconds``.  A ``promote`` request cancels the follow
  loop, replays any tail entries straight from the dead primary's journal
  segments (``follow_dir``), and flips the role to primary — loss-free,
  because every acknowledged event was flushed to the primary's journal
  before the ack.

The daemon is purely event-driven — predictor refits are triggered by
event timestamps, never the wall clock — so a crashed-and-recovered
daemon quotes bounds identical to one that never crashed (the journal
replay test in ``tests/server`` proves exactly this).  A quiet queue's
quotes are refreshed on demand by the ``refit`` op.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.runtime import faults
from repro.server import protocol
from repro.server.metrics import ServerMetrics
from repro.server.shell import PORT_FILE_NAME, DaemonShell, run_daemon
from repro.server.state import StateStore, apply_event
from repro.service.forecaster import ForecasterConfig, QueueForecaster

__all__ = ["PORT_FILE_NAME", "ServerConfig", "ForecastServer", "main", "serve"]

#: Group-commit burst cap: one journal write + flush covers at most this
#: many pipelined requests.
MAX_BATCH = 128
#: Checkpoint (and compact the journal) after this many journaled events,
#: on top of the periodic ``checkpoint_interval``.
CHECKPOINT_EVENTS = 1000
#: Bounded per-connection request queue (pipeline depth before TCP
#: backpressure reaches the client).
MAX_REQUEST_QUEUE = 64

_LAG_PROBE_INTERVAL = 0.25
#: Heartbeat cadence on an idle replication stream (carries the primary's
#: seq + wall clock so the follower can measure lag while nothing commits).
_SYNC_HEARTBEAT_INTERVAL = 1.0
#: Live-feed buffer per replication subscriber; overflow forces a resync
#: (the subscriber reconnects and catches up from its journal) instead of
#: letting a slow follower consume unbounded primary memory.
_SYNC_QUEUE_DEPTH = 4096
#: Stream limit for the follower's connection to its primary: a snapshot
#: line carries the whole forecaster state, far beyond MAX_LINE_BYTES.
_SYNC_LINE_LIMIT = 64 << 20


@dataclass
class ServerConfig:
    """Everything the daemon needs; defaults suit tests and local use."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; resolved port lands in the port file
    state_dir: Optional[Union[str, Path]] = None  # None = no durability
    checkpoint_interval: float = 30.0  # seconds between periodic checkpoints
    drain_timeout: float = 5.0  # grace for in-flight work on shutdown
    fsync: bool = False  # fsync journal/checkpoint (power-loss durability)
    forecaster: ForecasterConfig = field(default_factory=ForecasterConfig)
    # --- fleet -----------------------------------------------------------
    shard_id: Optional[int] = None  # this process's shard (None = unsharded)
    shard_count: Optional[int] = None  # fleet width (required with shard_id)
    follow: Optional[str] = None  # "host:port" of the primary to replicate
    follow_dir: Optional[Union[str, Path]] = None  # primary's state dir,
    # read at promotion to replay any entries the stream had not delivered


class _SyncSubscriber:
    """One attached replication follower: its live feed + overflow flag."""

    __slots__ = ("queue", "overflow")

    def __init__(self) -> None:
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=_SYNC_QUEUE_DEPTH)
        self.overflow = False


class ForecastServer(DaemonShell):
    """Asyncio daemon hosting one forecaster; see the module docstring."""

    def __init__(self, config: Optional[ServerConfig] = None):
        super().__init__(config or ServerConfig())
        self.role = "follower" if self.config.follow else "primary"
        self.metrics = ServerMetrics(
            shard_id=self.config.shard_id,
            shard_count=self.config.shard_count,
            role=self.role,
        )
        self.forecaster: Optional[QueueForecaster] = None
        self.store: Optional[StateStore] = None
        self._tasks: Set[asyncio.Task] = set()
        self._subscribers: Set[_SyncSubscriber] = set()
        self._follow_task: Optional[asyncio.Task] = None
        self._drop_next_response = False  # set by the daemon.mutation fault
        self._staged_entries: List[Dict[str, Any]] = []  # current burst's
        # journal entries, flushed as one group commit before any ack

    # -------------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Recover state, bind, and begin serving (returns once listening)."""
        if self.config.state_dir is not None:
            self.store = StateStore(self.config.state_dir, fsync=self.config.fsync)
            self.forecaster, replayed = self.store.recover(self.config.forecaster)
            self.store.open()
            self.metrics.replayed_on_boot = replayed
        else:
            self.forecaster = QueueForecaster(self.config.forecaster)
        await super().start()
        self._spawn(self._lag_monitor(), "lag-monitor")
        if self.store is not None:
            self._spawn(self._checkpoint_timer(), "checkpoint-timer")
        if self.role == "follower":
            self._follow_task = asyncio.get_running_loop().create_task(
                self._follow_loop()
            )
            self._tasks.add(self._follow_task)

    async def _shutdown(self) -> None:
        """After the drain: stop the timers and replication, checkpoint."""
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        if self.store is not None:
            self.store.checkpoint(self.forecaster)
            self.metrics.checkpoints += 1
            self.store.close()

    def _count_connection(self, delta: int) -> None:
        self.metrics.connections_open += delta
        if delta > 0:
            self.metrics.connections_total += 1

    def _count_http(self) -> None:
        self.metrics.http_requests += 1

    def _spawn(self, coro, name: str) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._tasks.add(task)

    # ------------------------------------------------------- background tasks

    async def _lag_monitor(self) -> None:
        """Measure event-loop lag: how late a timed sleep actually fires."""
        loop = asyncio.get_running_loop()
        while True:
            target = loop.time() + _LAG_PROBE_INTERVAL
            await asyncio.sleep(_LAG_PROBE_INTERVAL)
            self.metrics.record_loop_lag(max(0.0, loop.time() - target))

    async def _checkpoint_timer(self) -> None:
        while True:
            await asyncio.sleep(self.config.checkpoint_interval)
            if self.store.events_since_checkpoint > 0:
                self._checkpoint()

    def _checkpoint(self) -> int:
        seq = self.store.checkpoint(self.forecaster)
        self.metrics.checkpoints += 1
        self.metrics.segments_compacted = self.store.segments_compacted
        self.metrics.last_checkpoint_unix = time.time()
        return seq

    # ------------------------------------------------------------ connections

    async def _serve_ndjson(self, first: bytes, reader, writer) -> None:
        """A bounded queue between this reader and a worker gives
        per-connection backpressure (see module docstring)."""
        queue: asyncio.Queue = asyncio.Queue(maxsize=MAX_REQUEST_QUEUE)
        await queue.put(first)
        worker = asyncio.get_running_loop().create_task(
            self._request_worker(queue, writer)
        )
        try:
            while not self._draining:
                line = await self._read_line(reader, writer)
                if line is None:
                    break
                await queue.put(line)  # blocks when full: backpressure
        finally:
            try:
                queue.put_nowait(None)  # sentinel: drain backlog and stop
            except asyncio.QueueFull:
                worker.cancel()  # worker is gone; nothing will drain it
            await asyncio.wait({worker})

    async def _request_worker(self, queue: asyncio.Queue, writer) -> None:
        """Drain the connection's queue in bursts and group commit each one.

        Every response in a burst is held until the burst's journal entries
        are flushed (one write + flush for all of them), so no client ever
        sees an ack for an event that could vanish in a crash — the same
        guarantee as per-event journaling, minus N-1 flushes per burst.
        """
        done = False
        while not done:
            line = await queue.get()
            if line is None:
                done = True  # the reader's end sentinel: nothing follows
                break
            lines = [line]
            while len(lines) < MAX_BATCH:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is None:
                    done = True
                    break
                lines.append(extra)
            responses: List[Dict[str, Any]] = []
            drop_at: Optional[int] = None
            sync_request: Optional[Dict[str, Any]] = None
            for i, burst_line in enumerate(lines):
                response = self._process_line(burst_line)
                if isinstance(response, dict) and response.get("__sync__"):
                    sync_request = response["__sync__"]
                    break
                responses.append(response)
                if self._drop_next_response:
                    self._drop_next_response = False
                    drop_at = i
                    break
            self._flush_staged()
            if sync_request is not None:
                # The connection becomes a replication stream; any earlier
                # pipelined responses go out first.
                for response in responses:
                    writer.write(protocol.encode(response))
                await self._serve_sync(sync_request, writer)
                return
            if drop_at is not None:
                # Injected fault: the mutation is applied and journaled, but
                # the client never hears back — its retry path must cope.
                for response in responses[:drop_at]:
                    writer.write(protocol.encode(response))
                writer.transport.abort()
                break
            try:
                writer.write(b"".join(protocol.encode(r) for r in responses))
                await writer.drain()
            except (ConnectionError, OSError):
                break
        if done:
            return
        # Write side is dead: responses are undeliverable, so stop executing
        # (a mutation nobody can be told about must not be applied) and
        # discard the backlog so the blocked reader can't deadlock on put().
        while True:
            if await queue.get() is None:
                return

    def _flush_staged(self) -> None:
        """Group commit the burst's journal entries, then feed replication."""
        if not self._staged_entries or self.store is None:
            self._staged_entries.clear()
            return
        entries = self._staged_entries
        self._staged_entries = []
        seqs = self.store.journal_batch(entries)
        self.metrics.events_journaled += len(entries)
        if self._subscribers:
            records = []
            for entry, seq in zip(entries, seqs):
                record = dict(entry)
                record["seq"] = seq
                records.append(record)
            self._broadcast(records)
        if self.store.events_since_checkpoint >= CHECKPOINT_EVENTS:
            self._checkpoint()

    def _broadcast(self, records: List[Dict[str, Any]]) -> None:
        for sub in self._subscribers:
            if sub.overflow:
                continue
            for record in records:
                try:
                    sub.queue.put_nowait(record)
                    self.metrics.replication_entries_sent += 1
                except asyncio.QueueFull:
                    sub.overflow = True
                    break

    # ------------------------------------------------------------- execution

    def _process_line(self, line: bytes) -> Dict[str, Any]:
        """Parse + execute one request; always returns a response dict."""
        started = time.perf_counter()
        request_id: Any = None
        op = "invalid"
        try:
            request = protocol.parse_request(line)
            request_id = request["id"]
            op = request["op"]
            if op == "sync":
                # Streaming takeover: handled by the worker, not here.
                self.metrics.record_request(op, time.perf_counter() - started, True)
                return {"__sync__": request}
            result = self._execute(request)
            response = protocol.ok_response(request_id, result)
            self.metrics.record_request(op, time.perf_counter() - started, True)
            return response
        except protocol.ProtocolError as exc:
            self.metrics.record_request(
                op, time.perf_counter() - started, False, exc.code
            )
            return protocol.error_response(request_id, exc.code, exc.message)
        except Exception as exc:  # noqa: BLE001 - a bug must not kill the daemon
            self.metrics.record_request(
                op, time.perf_counter() - started, False, "internal"
            )
            print(
                f"bmbp-serve: internal error on {op}: {exc!r}",
                file=sys.stderr,
            )
            return protocol.error_response(
                request_id, "internal", f"internal error: {type(exc).__name__}"
            )

    def _check_shard(self, queue_name: str) -> None:
        """Reject operations on queues this shard does not own."""
        if self.config.shard_id is None or not self.config.shard_count:
            return
        expected = protocol.shard_of(queue_name, self.config.shard_count)
        if expected != self.config.shard_id:
            raise protocol.ProtocolError(
                "wrong-shard",
                f"queue {queue_name!r} belongs to shard {expected}, "
                f"this is shard {self.config.shard_id}",
            )

    def _execute(self, request: Dict[str, Any]) -> Any:
        op = request["op"]
        forecaster = self.forecaster
        if op in protocol.MUTATION_OPS:
            if self._draining:
                raise protocol.ProtocolError(
                    "shutting-down", "server is draining; retry elsewhere"
                )
            if self.role == "follower":
                raise protocol.ProtocolError(
                    "not-primary",
                    "this replica is a follower; mutations go to the primary",
                )
            return self._execute_mutation(request)
        if op == "forecast":
            self._check_shard(request["queue"])
            bound = forecaster.forecast(request["queue"], request["procs"])
            return {"queue": request["queue"], "procs": request["procs"],
                    "bound": bound}
        if op == "outlook":
            self._check_shard(request["queue"])
            return forecaster.outlook(request["queue"])
        if op == "queues":
            return {"queues": forecaster.queues(),
                    "pending": forecaster.pending_count()}
        if op == "describe":
            return {"text": forecaster.describe()}
        if op == "healthz":
            health = {
                "status": "draining" if self._draining else "ok",
                "uptime_s": time.monotonic() - self.metrics.started_monotonic,
                "seq": self.store.seq if self.store is not None else None,
                "pending": forecaster.pending_count(),
                "role": self.role,
            }
            if self.config.shard_id is not None:
                health["shard_id"] = self.config.shard_id
                health["shard_count"] = self.config.shard_count
            if self.role == "follower":
                # Live staleness: a stalled stream must show growing lag,
                # not the frozen per-message figure from the last apply.
                lag = self.metrics.replication_lag_seconds
                last = self.metrics.replication_last_applied_unix
                if last:
                    lag = max(lag, time.time() - last)
                health["replication_lag_seconds"] = lag
            return health
        if op == "metrics":
            return self.metrics.snapshot(forecaster)
        if op == "shards":
            return {
                "shard_id": self.config.shard_id,
                "shard_count": self.config.shard_count,
                "role": self.role,
                "seq": self.store.seq if self.store is not None else None,
                "queues": forecaster.queues(),
            }
        if op == "refit":
            now = request.get("now")
            refit = forecaster.refit(now if now is not None else time.time())
            return {"refit": refit}
        if op == "checkpoint":
            if self.store is None:
                raise protocol.ProtocolError(
                    "bad-request", "server has no state directory"
                )
            return {"seq": self._checkpoint()}
        if op == "promote":
            return self._promote()
        raise protocol.ProtocolError("unknown-op", f"unknown op {op!r}")

    def _execute_mutation(self, request: Dict[str, Any]) -> Any:
        """Apply and stage for the burst's group commit (journal before ack:
        the worker flushes every staged entry before writing any response)."""
        op = request["op"]
        forecaster = self.forecaster
        now = request.get("now")
        if now is None:
            now = time.time()
        if op == "submit":
            self._check_shard(request["queue"])
            entry = {"op": "submit", "job": request["job"],
                     "queue": request["queue"], "procs": request["procs"],
                     "now": now}
            try:
                bound = forecaster.job_submitted(
                    request["job"], request["queue"], request["procs"], now
                )
            except ValueError as exc:
                raise protocol.ProtocolError("conflict", str(exc)) from None
            result = {"job": request["job"], "bound": bound, "now": now}
        elif op == "start":
            entry = {"op": "start", "job": request["job"], "now": now}
            try:
                wait = forecaster.job_started(request["job"], now)
            except KeyError as exc:
                raise protocol.ProtocolError(
                    "unknown-job", str(exc.args[0]) if exc.args else str(exc)
                ) from None
            except ValueError as exc:
                raise protocol.ProtocolError("bad-event", str(exc)) from None
            result = {"job": request["job"], "wait": wait, "now": now}
        else:  # cancel
            existed = forecaster.is_pending(request["job"])
            forecaster.job_cancelled(request["job"])
            if not existed:
                return {"job": request["job"], "cancelled": False}
            entry = {"op": "cancel", "job": request["job"]}
            result = {"job": request["job"], "cancelled": True}
        if self.store is not None:
            self._staged_entries.append(entry)
        if faults.fire("daemon.mutation") == "drop":
            self._drop_next_response = True
        return result

    # ------------------------------------------------------------ replication

    async def _serve_sync(self, request: Dict[str, Any], writer) -> None:
        """Stream the journal to an attached follower until it disconnects.

        Subscribe-before-snapshot ordering closes the gap: the live feed is
        attached first, then the catch-up data chosen, so an entry
        committing in between is queued, not lost (the subscriber skips the
        duplicates by seq).
        """
        if self.store is None:
            writer.write(
                protocol.encode(
                    protocol.error_response(
                        request.get("id"), "bad-request",
                        "server has no state directory to replicate",
                    )
                )
            )
            await writer.drain()
            return
        sub = _SyncSubscriber()
        self._subscribers.add(sub)
        self.metrics.replication_followers = len(self._subscribers)
        loop = asyncio.get_running_loop()
        try:
            from_seq = int(request.get("from_seq") or 0)
            sent_through = from_seq
            if from_seq < self.store.compacted_through:
                # Too far behind the compaction horizon: ship a snapshot.
                writer.write(protocol.encode({
                    "sync": "snapshot",
                    "seq": self.store.seq,
                    "ts": time.time(),
                    "forecaster": self.forecaster.to_state(),
                }))
                sent_through = self.store.seq
                self.metrics.replication_snapshots_sent += 1
            else:
                for entry in self.store.read_entries_since(from_seq):
                    writer.write(protocol.encode({
                        "sync": "entry", "ts": time.time(), "entry": entry,
                    }))
                    sent_through = max(sent_through, entry.get("seq", 0))
                    self.metrics.replication_entries_sent += 1
            await writer.drain()
            last_send = loop.time()
            while not self._draining:
                if sub.overflow:
                    # Slow follower: tell it to reconnect and catch up from
                    # its own journal position rather than buffer forever.
                    writer.write(protocol.encode(
                        {"sync": "resync", "ts": time.time()}
                    ))
                    await writer.drain()
                    return
                try:
                    record = await asyncio.wait_for(sub.queue.get(), timeout=0.25)
                except asyncio.TimeoutError:
                    record = None
                if record is not None:
                    seq = record.get("seq", 0)
                    if seq > sent_through:
                        writer.write(protocol.encode(
                            {"sync": "entry", "ts": time.time(), "entry": record}
                        ))
                        sent_through = seq
                        last_send = loop.time()
                        await writer.drain()
                elif loop.time() - last_send >= _SYNC_HEARTBEAT_INTERVAL:
                    writer.write(protocol.encode({
                        "sync": "heartbeat",
                        "seq": self.store.seq,
                        "ts": time.time(),
                    }))
                    last_send = loop.time()
                    await writer.drain()
        except (ConnectionError, OSError):
            pass
        finally:
            self._subscribers.discard(sub)
            self.metrics.replication_followers = len(self._subscribers)
            # Unwind the connection's reader, which is blocked in readline.
            try:
                writer.transport.abort()
            except Exception:  # noqa: BLE001 - transport may already be gone
                pass

    async def _follow_loop(self) -> None:
        """Follower side: tail the primary's journal, apply + journal each
        entry, reconnect (resuming from our own seq) on any failure."""
        host, _, port_text = self.config.follow.rpartition(":")
        primary = (host or "127.0.0.1", int(port_text))
        while not self._draining:
            try:
                await self._follow_once(primary)
            except asyncio.CancelledError:
                raise
            except (ConnectionError, OSError, ValueError):
                pass
            await asyncio.sleep(0.2)

    async def _follow_once(self, primary: Tuple[str, int]) -> None:
        reader, writer = await asyncio.open_connection(
            primary[0], primary[1], limit=_SYNC_LINE_LIMIT
        )
        try:
            writer.write(protocol.encode(
                {"op": "sync", "id": "sync", "from_seq": self.store.seq}
            ))
            await writer.drain()
            while not self._draining:
                line = await reader.readline()
                if not line:
                    return
                msg = json.loads(line)
                kind = msg.get("sync")
                if kind is None:
                    return  # error response (primary has no state dir)
                if faults.fire("replication.apply") == "halt":
                    # Injected fault: stop consuming the stream so follower
                    # lag becomes observable; promotion must still catch up
                    # from the primary's journal on disk.
                    await self._stopped.wait()
                    return
                ts = msg.get("ts")
                if kind == "snapshot":
                    forecaster = QueueForecaster.from_state(msg["forecaster"])
                    self.forecaster = forecaster
                    self.store.reset_to_snapshot(forecaster, int(msg["seq"]))
                elif kind == "entry":
                    entry = msg["entry"]
                    seq = entry.get("seq", 0)
                    if isinstance(seq, int) and seq > self.store.seq:
                        apply_event(self.forecaster, entry)
                        self.store.journal_replicated(entry)
                        self.metrics.replication_entries_applied += 1
                elif kind == "resync":
                    return  # reconnect; from_seq resumes where we stopped
                if ts is not None:
                    self.metrics.replication_lag_seconds = max(
                        0.0, time.time() - float(ts)
                    )
                    self.metrics.replication_last_applied_unix = time.time()
        finally:
            try:
                writer.close()
            except Exception:  # noqa: BLE001
                pass

    def _promote(self) -> Dict[str, Any]:
        """Follower → primary: stop following, drain the dead primary's
        journal tail from disk, start taking writes.

        Loss-free: every event the old primary acknowledged was flushed to
        its journal first, so ``follow_dir`` holds a superset of the acked
        history — replaying entries past our own seq recovers exactly the
        acked events the stream had not delivered yet.  Idempotent on an
        already-primary daemon.
        """
        if self.role == "primary":
            return {
                "promoted": False, "role": "primary",
                "seq": self.store.seq if self.store is not None else None,
                "caught_up": 0,
            }
        if self._follow_task is not None:
            self._follow_task.cancel()
            self._tasks.discard(self._follow_task)
            self._follow_task = None
        caught_up = 0
        if self.config.follow_dir is not None and self.store is not None:
            primary_store = StateStore(self.config.follow_dir)
            for entry in primary_store.read_entries_since(self.store.seq):
                seq = entry.get("seq")
                if not isinstance(seq, int) or seq <= self.store.seq:
                    continue
                apply_event(self.forecaster, entry)
                self.store.journal_replicated(entry)
                caught_up += 1
        self.role = "primary"
        self.metrics.role = "primary"
        self.metrics.promotions += 1
        self.metrics.replication_lag_seconds = 0.0
        return {
            "promoted": True, "role": "primary",
            "seq": self.store.seq if self.store is not None else None,
            "caught_up": caught_up,
        }

    # ------------------------------------------------------------------ HTTP

    async def _http_result(self, request: Dict[str, Any]) -> Any:
        started = time.perf_counter()
        op = request["op"]
        try:
            if op == "metrics":
                result = self.metrics.render_text(self.forecaster)
            else:
                result = self._execute(request)
        except protocol.ProtocolError as exc:
            self.metrics.record_request(
                op, time.perf_counter() - started, False, exc.code
            )
            raise
        self.metrics.record_request(op, time.perf_counter() - started, True)
        return result


def _banner(server: ForecastServer) -> str:
    config = server.config
    shard = (
        f" shard {config.shard_id}/{config.shard_count}"
        if config.shard_id is not None
        else ""
    )
    role = f" as {server.role}" if config.follow else ""
    return (
        f"bmbp-serve: listening on {config.host}:{server.port}{shard}{role}"
        + (
            f" (state: {config.state_dir})"
            if config.state_dir is not None
            else " (in-memory, no durability)"
        )
    )


def serve(config: Optional[ServerConfig] = None) -> int:
    """Blocking entry point used by ``repro serve``."""
    return run_daemon(
        lambda: ForecastServer(config), _banner,
        "bmbp-serve: drained and checkpointed, bye",
    )


#: The forecaster flags ``serve`` declares and ``fleet`` forwards to every
#: daemon it spawns, each defaulting to its :class:`ForecasterConfig` field.
FORECASTER_FLAGS = ("--quantile", "--confidence", "--epoch", "--training-jobs")


def add_forecaster_args(parser: argparse.ArgumentParser) -> None:
    for flag in FORECASTER_FLAGS:
        default = getattr(ForecasterConfig, flag[2:].replace("-", "_"))
        parser.add_argument(flag, type=type(default), default=default,
                            help="default %(default)s")


def forecaster_argv(args: argparse.Namespace) -> List[str]:
    """``args``' forecaster flags as a ``bmbp serve`` argument list."""
    return [token for flag in FORECASTER_FLAGS
            for token in (flag, str(getattr(args, flag[2:].replace("-", "_"))))]


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmbp serve", description="run the live forecast daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=7077,
        help="TCP port (default %(default)s; 0 = ephemeral, written to the "
        "state directory's server.port file)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help="checkpoint/journal directory (omit for an in-memory daemon "
        "with no durability)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=30.0, metavar="SECONDS",
        help="periodic checkpoint cadence (default %(default)s; the daemon "
        f"also checkpoints every {CHECKPOINT_EVENTS} journaled events)",
    )
    parser.add_argument(
        "--fsync", action="store_true",
        help="fsync the journal per event (power-loss durability; slower)",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="grace period for in-flight requests on SIGTERM (default %(default)s)",
    )
    add_forecaster_args(parser)
    parser.add_argument(
        "--no-bins", action="store_true",
        help="disable per-processor-bin predictor banks",
    )
    fleet = parser.add_argument_group("fleet membership")
    fleet.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="serve only queues hashing to shard I (requires --shard-count)",
    )
    fleet.add_argument(
        "--shard-count", type=int, default=None, metavar="N",
        help="total shards in the fleet this daemon belongs to",
    )
    fleet.add_argument(
        "--follow", default=None, metavar="HOST:PORT",
        help="run as a warm follower replicating from this primary "
        "(mutations are rejected with not-primary until promoted)",
    )
    fleet.add_argument(
        "--follow-dir", default=None, metavar="DIR",
        help="the primary's state directory; read at promotion to replay "
        "journal entries the replication stream had not delivered",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    if (args.shard_id is None) != (args.shard_count is None):
        print(
            "bmbp serve: --shard-id and --shard-count go together",
            file=sys.stderr,
        )
        return 2
    return serve(ServerConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        checkpoint_interval=args.checkpoint_interval,
        fsync=args.fsync,
        drain_timeout=args.drain_timeout,
        shard_id=args.shard_id,
        shard_count=args.shard_count,
        follow=args.follow,
        follow_dir=args.follow_dir,
        forecaster=ForecasterConfig(
            quantile=args.quantile,
            confidence=args.confidence,
            epoch=args.epoch,
            training_jobs=args.training_jobs,
            by_bin=not args.no_bins,
        ),
    ))
