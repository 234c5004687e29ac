"""Asyncio fan-out client: pooled NDJSON connections per backend, with
per-request deadlines, bounded retries, hedged duplicates, a circuit
breaker, and stale-while-revalidate degradation.

One :class:`Backend` wraps one forecast daemon.  A request flows through
these layers, outermost first:

1. **SWR cache** — a fresh cached bound is returned immediately and a
   background revalidation refreshes it (:class:`~repro.broker.cache.ForecastCache`).
2. **Circuit breaker** — an open breaker short-circuits straight to the
   stale cache; a half-open breaker admits one probe
   (:class:`~repro.broker.breaker.CircuitBreaker`).  When the site has a
   configured **standby** (its warm replication follower, see
   :mod:`repro.fleet`), an open breaker instead triggers *failover*: the
   standby is promoted, the pool is rewired to it, and live bounds
   resume — bit-identical to the dead primary's, because promotion
   replays its journal tail before answering.  Quotes carry
   ``failover``/``endpoint`` provenance ever after.
3. **Retry loop** — bounded attempts, all inside one per-request deadline.
4. **Hedging** — if the primary attempt is still in flight after the
   backend's observed p95 latency (or the configured ``hedge_after``), a
   duplicate request is launched on a second pooled connection and the
   first successful response wins; the loser is cancelled and its
   connection discarded, so exactly one result is ever used.
5. **Connection pool** — at most :data:`POOL_SIZE` concurrent TCP connections
   per backend, reused across requests; a connection whose request
   failed, timed out, or was cancelled mid-read is closed, never reused
   (a half-read NDJSON stream cannot be resynchronized).

Every failure degrades to a :class:`SiteQuote` carrying the last-known
bound (``stale: true``) or an explicit ``none`` source — :meth:`Backend.forecast`
never raises, which is what lets the broker promise that a dead site
cannot fail a route.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Set, Tuple

from repro.broker.breaker import CLOSED, CircuitBreaker
from repro.broker.cache import ForecastCache
from repro.broker.registry import SiteSpec
from repro.runtime import faults
from repro.server.metrics import BrokerMetrics

__all__ = ["Backend", "BackendError", "ConnectionPool", "SiteQuote"]

#: Pooled connections per backend.
POOL_SIZE = 4

#: Fault-injection hook site (see docs/verification.md): ``drop`` aborts
#: the in-flight backend request as if the remote daemon crashed mid-read.
FAULT_SITE = "broker.request"


class BackendError(Exception):
    """A backend request failed (transport, timeout, or server error)."""


@dataclass
class SiteQuote:
    """One (site, queue) answer with full provenance for the ranked response.

    ``source`` is ``live`` (network answer), ``cache`` (fresh SWR hit),
    ``stale`` (degraded last-known bound) or ``none`` (no data); ``stale``
    is the boolean the acceptance contract asks for, ``age_s`` how old the
    served bound is, ``breaker`` the breaker state at answer time.
    """

    site: str
    queue: str
    procs: Optional[int]
    bound: Optional[float]
    source: str
    stale: bool
    age_s: Optional[float]
    breaker: str
    latency_ms: Optional[float] = None
    hedged: bool = False
    error: Optional[str] = None
    #: True once this site's answers come from a promoted standby; the
    #: serving endpoint travels with every quote so a ranked response
    #: always says *which* process produced the bound.
    failover: bool = False
    endpoint: Optional[str] = None

    def provenance(self) -> Dict[str, Any]:
        """JSON-ready provenance record for the route response."""
        return {
            "site": self.site,
            "queue": self.queue,
            "procs": self.procs,
            "bound": self.bound,
            "source": self.source,
            "stale": self.stale,
            "age_s": None if self.age_s is None else round(self.age_s, 3),
            "breaker": self.breaker,
            "latency_ms": None
            if self.latency_ms is None
            else round(self.latency_ms, 3),
            "hedged": self.hedged,
            "error": self.error,
            "failover": self.failover,
            "endpoint": self.endpoint,
        }


class ConnectionPool:
    """Bounded pool of (reader, writer) pairs to one host:port.

    ``acquire`` reuses an idle connection or dials a new one, blocking when
    ``size`` connections are already checked out; ``release`` returns the
    connection for reuse, or closes it when ``discard`` is set.  The pool
    is bound to the event loop that first acquires from it; a new loop
    (a fresh ``asyncio.run``) transparently resets the idle set, since
    sockets cannot migrate between loops.
    """

    def __init__(self, host: str, port: int, size: int = 4,
                 connect_timeout: float = 1.0):
        if size < 1:
            raise ValueError("pool size must be at least 1")
        self.host = host
        self.port = port
        self.size = size
        self.connect_timeout = connect_timeout
        self.in_use = 0
        self.dials = 0
        self._idle: Deque[Tuple[asyncio.StreamReader, asyncio.StreamWriter]] = deque()
        self._sem: Optional[asyncio.Semaphore] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def _bind_loop(self) -> None:
        loop = asyncio.get_running_loop()
        if loop is not self._loop:
            for _, writer in self._idle:
                writer.close()
            self._idle.clear()
            self._sem = asyncio.Semaphore(self.size)
            self._loop = loop
            self.in_use = 0

    async def acquire(self) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        self._bind_loop()
        await self._sem.acquire()
        try:
            while self._idle:
                reader, writer = self._idle.popleft()
                if writer.is_closing() or reader.at_eof():
                    writer.close()
                    continue
                self.in_use += 1
                return reader, writer
            self.dials += 1
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port),
                self.connect_timeout,
            )
        except BaseException:
            self._sem.release()
            raise
        self.in_use += 1
        return reader, writer

    def release(
        self,
        conn: Tuple[asyncio.StreamReader, asyncio.StreamWriter],
        discard: bool = False,
    ) -> None:
        self.in_use -= 1
        self._sem.release()
        reader, writer = conn
        if discard or writer.is_closing():
            writer.close()
        else:
            self._idle.append(conn)

    async def close(self) -> None:
        while self._idle:
            _, writer = self._idle.popleft()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class Backend:
    """One forecast daemon behind pool + breaker + cache + hedging."""

    def __init__(
        self,
        spec: SiteSpec,
        metrics: Optional[BrokerMetrics] = None,
        request_timeout: float = 0.25,
        retries: int = 1,
        hedge_after: Optional[float] = None,
        hedge_percentile: float = 0.95,
        hedge_floor: float = 0.02,
        breaker: Optional[CircuitBreaker] = None,
        cache: Optional[ForecastCache] = None,
    ):
        self.spec = spec
        self.metrics = metrics if metrics is not None else BrokerMetrics()
        self.request_timeout = request_timeout
        self.retries = retries
        self.hedge_after = hedge_after
        self.hedge_percentile = hedge_percentile
        self.hedge_floor = hedge_floor
        self.pool = ConnectionPool(spec.host, spec.port, size=POOL_SIZE,
                                   connect_timeout=request_timeout)
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.cache = cache if cache is not None else ForecastCache()
        #: Failover state: which process currently serves this site.
        self.active_host = spec.host
        self.active_port = spec.port
        self.failed_over = False
        self._failover_in_flight = False
        self._latencies: Deque[float] = deque(maxlen=64)
        self._revalidating: Set[Tuple[str, Optional[int]]] = set()
        self._tasks: Set[asyncio.Task] = set()

    @property
    def endpoint(self) -> str:
        """``host:port`` of the process currently serving this site."""
        return f"{self.active_host}:{self.active_port}"

    # ------------------------------------------------------------- transport

    def _hedge_delay(self) -> float:
        """When to launch the duplicate: observed p95, or the override."""
        if self.hedge_after is not None:
            return self.hedge_after
        if len(self._latencies) >= 8:
            ordered = sorted(self._latencies)
            index = min(
                len(ordered) - 1, int(self.hedge_percentile * len(ordered))
            )
            return max(self.hedge_floor, ordered[index])
        # Too few samples to trust a percentile: hedge conservatively late.
        return self.request_timeout / 2

    async def _roundtrip(self, payload: Dict[str, Any], timeout: float) -> Any:
        """One request/response on one pooled connection; returns ``result``."""
        conn = await self.pool.acquire()
        discard = True
        started = time.perf_counter()
        try:
            if faults.fire(FAULT_SITE) == "drop":
                # Injected fault: the backend "crashes" mid-request.  The
                # slot must be released (discard path) and the fan-out must
                # degrade, not corrupt the ranked response.
                conn[1].transport.abort()
                raise BackendError("injected mid-fanout connection drop")
            line = json.dumps(payload, separators=(",", ":")).encode() + b"\n"
            conn[1].write(line)
            await conn[1].drain()
            raw = await asyncio.wait_for(conn[0].readline(), timeout)
            if not raw:
                raise BackendError("backend closed the connection")
            response = json.loads(raw)
            discard = False
        except asyncio.CancelledError:
            # Hedge loser or deadline cancel: the connection may have an
            # unread response in flight — never reuse it.
            raise
        except Exception as exc:
            self.metrics.record_backend_request(self.spec.name, None, ok=False)
            if isinstance(exc, (BackendError, ValueError)):
                raise
            raise BackendError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            self.pool.release(conn, discard=discard)
        latency = time.perf_counter() - started
        self._latencies.append(latency)
        if not response.get("ok"):
            error = response.get("error") or {}
            self.metrics.record_backend_request(self.spec.name, latency, ok=False)
            raise BackendError(
                f"[{error.get('code', 'internal')}] {error.get('message', '')}"
            )
        self.metrics.record_backend_request(self.spec.name, latency, ok=True)
        return response.get("result")

    async def _attempt(
        self, payload: Dict[str, Any], deadline_at: float
    ) -> Tuple[Any, bool]:
        """One (possibly hedged) attempt; returns ``(result, hedged)``."""
        remaining = deadline_at - time.monotonic()
        if remaining <= 0:
            raise BackendError("request deadline exhausted")
        timeout = min(self.request_timeout, remaining)
        primary = asyncio.get_running_loop().create_task(
            self._roundtrip(payload, timeout)
        )
        hedge_delay = max(0.0, min(self._hedge_delay(), timeout))
        done, _pending = await asyncio.wait({primary}, timeout=hedge_delay)
        if primary in done:
            return primary.result(), False
        # Primary is slow: launch the duplicate on a second connection.
        remaining = max(0.001, deadline_at - time.monotonic())
        hedge = asyncio.get_running_loop().create_task(
            self._roundtrip(payload, min(self.request_timeout, remaining))
        )
        tasks: Set[asyncio.Task] = {primary, hedge}
        winner: Optional[asyncio.Task] = None
        first_error: Optional[BaseException] = None
        while tasks:
            budget = deadline_at - time.monotonic()
            if budget <= 0:
                break
            done, tasks = await asyncio.wait(
                tasks, return_when=asyncio.FIRST_COMPLETED, timeout=budget
            )
            if not done:
                break
            for task in done:
                if task.exception() is None:
                    winner = task
                    break
                if first_error is None:
                    first_error = task.exception()
            if winner is not None:
                break
        # Exactly one result wins; the other attempt is cancelled and its
        # connection discarded by _roundtrip's cancellation path.
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        self.metrics.record_hedge(won=winner is hedge)
        if winner is None:
            if first_error is not None:
                raise first_error
            raise BackendError("request deadline exceeded")
        return winner.result(), True

    # -------------------------------------------------------------- requests

    async def request(
        self, payload: Dict[str, Any], deadline: Optional[float] = None
    ) -> Any:
        """A raw protocol request with retry + hedging (no cache/breaker).

        Used for non-forecast ops (``queues``, ``healthz``); raises
        :class:`BackendError` after the deadline or final retry.
        """
        deadline_at = time.monotonic() + (
            deadline if deadline is not None else self.default_deadline()
        )
        last_error: Optional[BaseException] = None
        for _attempt_index in range(self.retries + 1):
            try:
                result, _hedged = await self._attempt(payload, deadline_at)
                return result
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - degrade, never crash a route
                last_error = exc
                if time.monotonic() >= deadline_at:
                    break
        raise BackendError(str(last_error))

    def default_deadline(self) -> float:
        """Worst-case budget: every retry timing out back to back."""
        return self.request_timeout * (self.retries + 1)

    async def forecast(
        self,
        queue: str,
        procs: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> SiteQuote:
        """The full degradation ladder; never raises (see module docstring)."""
        key = (queue, procs)
        payload: Dict[str, Any] = {"op": "forecast", "queue": queue}
        if procs is not None:
            payload["procs"] = procs
        hit = self.cache.fresh(key)
        if hit is not None and self.breaker.state == CLOSED:
            self._spawn_revalidate(key, payload)
            return self._finish_quote(SiteQuote(
                site=self.spec.name, queue=queue, procs=procs,
                bound=hit.value, source="cache", stale=False, age_s=hit.age,
                breaker=self.breaker.state,
            ))
        if not self.breaker.allow_request():
            # An open breaker with a configured standby is the failover
            # trigger: promote the follower and serve live bounds from it
            # instead of going stale until an operator notices.
            if not await self._try_failover():
                return self._degraded(key, queue, procs, error="breaker-open")
        deadline_at = time.monotonic() + (
            deadline if deadline is not None else self.default_deadline()
        )
        last_error: Optional[BaseException] = None
        started = time.perf_counter()
        for _attempt_index in range(self.retries + 1):
            try:
                result, hedged = await self._attempt(payload, deadline_at)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - degrade, never crash a route
                last_error = exc
                self.breaker.record_failure()
                if time.monotonic() >= deadline_at or not self.breaker.allow_request():
                    break
                continue
            self.breaker.record_success()
            bound = result.get("bound") if isinstance(result, dict) else None
            self.cache.put(key, bound)
            return self._finish_quote(SiteQuote(
                site=self.spec.name, queue=queue, procs=procs, bound=bound,
                source="live", stale=False, age_s=0.0,
                breaker=self.breaker.state,
                latency_ms=(time.perf_counter() - started) * 1e3,
                hedged=hedged,
            ))
        return self._degraded(key, queue, procs, error=str(last_error))

    # -------------------------------------------------------------- failover

    async def _try_failover(self) -> bool:
        """Promote the standby and rewire the pool to it.  Returns True
        when this backend now points at a serving primary.

        Loss-free by construction: the follower journals every replicated
        entry under the primary's sequence numbers, and promotion replays
        the dead primary's journal tail from disk before answering — so a
        bound quoted after failover reflects every event the dead primary
        ever acknowledged.  Idempotent (promoting a primary is a no-op on
        the daemon side), and single-flight so a burst of routes over an
        open breaker triggers one promotion, not one per request.
        """
        if self.spec.standby_port is None or self.failed_over:
            return False
        if self._failover_in_flight:
            return False
        self._failover_in_flight = True
        try:
            host = self.spec.standby_host or self.spec.host
            port = self.spec.standby_port
            result = await asyncio.wait_for(
                self._promote(host, port),
                timeout=max(1.0, self.request_timeout * 4),
            )
        except asyncio.CancelledError:
            raise
        except Exception:  # noqa: BLE001 - standby also down: stay degraded
            return False
        finally:
            self._failover_in_flight = False
        if not (result.get("promoted") or result.get("role") == "primary"):
            return False
        old_pool = self.pool
        self.pool = ConnectionPool(
            host, port, size=old_pool.size,
            connect_timeout=old_pool.connect_timeout,
        )
        self.active_host, self.active_port = host, port
        self.failed_over = True
        # The promoted primary is healthy by direct evidence; close the
        # breaker so traffic flows immediately.
        self.breaker.record_success()
        self.metrics.record_failover(self.spec.name)
        task = asyncio.get_running_loop().create_task(old_pool.close())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return True

    async def _promote(self, host: str, port: int) -> Dict[str, Any]:
        """One direct (un-pooled) ``promote`` round-trip to the standby."""
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(json.dumps(
                {"op": "promote", "id": "broker-failover"},
                separators=(",", ":"),
            ).encode() + b"\n")
            await writer.drain()
            raw = await reader.readline()
            if not raw:
                raise BackendError("standby closed the connection")
            response = json.loads(raw)
            if not response.get("ok"):
                error = response.get("error") or {}
                raise BackendError(
                    f"[{error.get('code', 'internal')}] {error.get('message', '')}"
                )
            result = response.get("result")
            return result if isinstance(result, dict) else {}
        finally:
            writer.close()

    def _degraded(
        self, key: Tuple[str, Optional[int]], queue: str,
        procs: Optional[int], error: str,
    ) -> SiteQuote:
        """Serve the stale cache (or an explicit no-data quote) on failure."""
        hit = self.cache.lookup(key)
        if hit is not None:
            quote = SiteQuote(
                site=self.spec.name, queue=queue, procs=procs,
                bound=hit.value, source="stale", stale=True, age_s=hit.age,
                breaker=self.breaker.state, error=error,
            )
        else:
            quote = SiteQuote(
                site=self.spec.name, queue=queue, procs=procs,
                bound=None, source="none", stale=True, age_s=None,
                breaker=self.breaker.state, error=error,
            )
        return self._finish_quote(quote)

    def _finish_quote(self, quote: SiteQuote) -> SiteQuote:
        quote.failover = self.failed_over
        quote.endpoint = self.endpoint
        self.metrics.record_quote_source(quote.source)
        self.metrics.record_breaker(
            self.spec.name, self.breaker.state, self.breaker.transitions
        )
        return quote

    def _spawn_revalidate(
        self, key: Tuple[str, Optional[int]], payload: Dict[str, Any]
    ) -> None:
        """Background refresh behind a fresh cache hit (the 'revalidate')."""
        if key in self._revalidating:
            return
        self._revalidating.add(key)

        async def _refresh() -> None:
            try:
                result, _hedged = await self._attempt(
                    payload, time.monotonic() + self.request_timeout
                )
                self.breaker.record_success()
                bound = result.get("bound") if isinstance(result, dict) else None
                self.cache.put(key, bound)
            except asyncio.CancelledError:
                pass
            except Exception:  # noqa: BLE001 - refresh is best-effort
                self.breaker.record_failure()
            finally:
                self._revalidating.discard(key)

        task = asyncio.get_running_loop().create_task(_refresh())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def close(self) -> None:
        for task in list(self._tasks):
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)
        await self.pool.close()
