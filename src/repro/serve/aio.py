"""One asyncio HTTP shell and one keep-alive connection pool for every tier.

Fig. 2's deployment is one wire protocol (:mod:`repro.serve.protocol`)
spoken by three tiers — delta-server, delta-unaware proxy-cache, and the
fleet supervisor's admin endpoint.  What they share lives here, once:

* :class:`ServerShell`, the inbound half: listeners, connection slots
  with ``503`` rejection (the paper's Apache connection ceiling, Section
  VI-C), the keep-alive request loop with idle and per-request timeouts,
  error mapping, ``X-Trace-Id``, response accounting, ``/__health__`` +
  ``/__metrics__``, and graceful drain.  A tier supplies
  ``async handle(request) -> Response``; the delta-server and the proxy
  subclass the shell (its lifecycle is theirs), the supervisor owns one.
* :class:`ConnectionPool`, the outbound half: keep-alive connections to
  one peer, capped open and parked, one retry when a *reused* connection
  turns out dead, a typed :class:`PeerUnavailable` when a *fresh* one fails.

Drain is idle-aware: a connection waiting for a request holds no work,
so ``close()`` shuts it at once and waits ``drain_timeout`` only for
requests in flight.  Tiers draining in parallel therefore see each
other's pooled keep-alives as parked, never as work to wait for.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import itertools
import json
import logging
import random
import socket
import time
from collections import deque
from typing import Awaitable, Callable, Sequence

from repro.http.messages import HEADER_TRACE_ID, Request, Response
from repro.metrics import PROMETHEUS_CONTENT_TYPE, MetricsRegistry
from repro.serve.protocol import (
    ParsedRequest,
    ParsedResponse,
    ProtocolError,
    read_request,
    read_response,
    serialize_request,
    serialize_response,
)
from repro.serve.stats import ServeStats
from repro.url.parts import split_server

logger = logging.getLogger("repro.serve")

#: the paper's Apache connection ceiling (Section VI-C)
PAPER_CONNECTION_LIMIT = 255

#: path (relative to any host) answering the liveness/degradation report
HEALTH_PATH = "__health__"

#: path (relative to any host) answering the Prometheus-text exposition
METRICS_PATH = "__metrics__"

_Stream = tuple[asyncio.StreamReader, asyncio.StreamWriter]


def _discard(writer: asyncio.StreamWriter) -> None:
    with contextlib.suppress(Exception):
        writer.close()


class PeerUnavailable(Exception):
    """The peer refused a fresh connection or died on one (down/restarting)."""


class ConnectionPool:
    """Keep-alive connections to one ``host:port`` (event-loop confined).

    ``max_open`` bounds connections in use at once — a caller beyond it
    waits for a slot instead of opening another; ``max_parked`` bounds how
    many idle connections are kept for reuse (``0``: one exchange per
    connection, announced with ``Connection: close``).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        max_parked: int,
        max_open: int | None = None,
        connect_timeout: float | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self._max_parked = max_parked
        self._open_slots = asyncio.Semaphore(max_open) if max_open else None
        self._connect_timeout = connect_timeout
        self._parked: deque[_Stream] = deque()
        self._closed = False

    @property
    def parked(self) -> int:
        return len(self._parked)

    async def exchange(
        self, request: Request, *, timeout: float | None = None
    ) -> ParsedResponse:
        """Send ``request`` and read its response.

        A parked connection the peer closed since it was parked is
        indistinguishable from a peer that restarted, so a failure on a
        *reused* connection is retried once on a fresh one.  A fresh
        connection that cannot be opened, or dies mid-exchange, raises
        :class:`PeerUnavailable`.  ``timeout`` bounds the wait for the
        response; exceeding it raises :class:`asyncio.TimeoutError`
        without a retry (the peer is slow, not gone).
        """
        wire = serialize_request(request, keep_alive=self._max_parked > 0)
        async with self._open_slots or contextlib.nullcontext():
            for attempt in (0, 1):
                stream = self._take_parked() if attempt == 0 else None
                reused = stream is not None
                reader, writer = stream or await self._connect()
                try:
                    writer.write(wire)
                    await writer.drain()
                    parsed = await asyncio.wait_for(read_response(reader), timeout)
                except (asyncio.TimeoutError, asyncio.CancelledError):
                    # Abandoned mid-message: the stream is in an unknown
                    # state and must never be reused.  (Listed first —
                    # since 3.11 TimeoutError is an OSError.)
                    _discard(writer)
                    raise
                except (ProtocolError, OSError) as exc:
                    _discard(writer)
                    if reused:
                        continue
                    raise PeerUnavailable(
                        f"{self.host}:{self.port} exchange failed: {exc}"
                    ) from exc
                if (
                    parsed.keep_alive
                    and not self._closed
                    and len(self._parked) < self._max_parked
                ):
                    self._parked.append((reader, writer))
                else:
                    _discard(writer)
                return parsed
        raise AssertionError("unreachable")  # pragma: no cover

    def _take_parked(self) -> _Stream | None:
        while self._parked:
            reader, writer = self._parked.popleft()
            if not writer.is_closing():
                return reader, writer
            _discard(writer)
        return None

    async def _connect(self) -> _Stream:
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(self.host, self.port), self._connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise PeerUnavailable(
                f"{self.host}:{self.port} unreachable: {exc!r}"
            ) from exc

    def close(self) -> None:
        """Drop every parked connection and refuse re-parking.

        Exchanges in flight keep their connection and finish normally; it
        is discarded instead of parked afterwards.
        """
        self._closed = True
        while self._parked:
            _discard(self._parked.popleft()[1])


class ServerShell:
    """The inbound HTTP/1.1 shell shared by every tier (module docstring).

    ``handle`` answers every request except the two admin paths, which
    the shell routes to ``health()`` (a JSON-ready dict) and
    ``metrics_lines()`` (Prometheus exposition lines), passing the answer
    through ``stamp`` for the tier's identity headers.  A ``handle`` that
    raises costs one ``500``, not the connection; one that outlives
    ``request_timeout`` costs one ``504``.
    """

    def __init__(
        self,
        handle: Callable[[Request], Awaitable[Response]],
        *,
        health: Callable[[], Awaitable[dict]],
        metrics_lines: Callable[[], Awaitable[list[str]]],
        stamp: Callable[[Response], None] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        reuse_port: bool = False,
        listen_sock: socket.socket | None = None,
        loopback_ports: Sequence[int] = (),
        max_connections: int = PAPER_CONNECTION_LIMIT,
        request_timeout: float = 30.0,
        idle_timeout: float = 30.0,
        drain_timeout: float = 5.0,
        chunk_threshold: int = 16 * 1024,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        self._handle = handle
        self._health = health
        self._metrics_lines = metrics_lines
        self._stamp = stamp
        # Fleet accept sharing: ``listen_sock`` is the supervisor's
        # inherited listener (host/port ignored), ``reuse_port`` binds the
        # shared address beside the other workers.
        self._listen_on: list[dict] = [
            {"sock": listen_sock}
            if listen_sock is not None
            else {"host": host, "port": port, "reuse_port": reuse_port}
        ]
        self._listen_on += [
            {"host": "127.0.0.1", "port": extra} for extra in loopback_ports
        ]
        self.max_connections = max_connections
        self.clock = clock or time.monotonic
        self.serve_stats = ServeStats()
        #: registry receiving the serialize+drain stage timing and the
        #: collector's pauses, if any
        self.metrics = metrics
        # (generation, seconds) per collection, stashed by _on_gc and moved
        # into the registry by _flush_gc_pauses.
        self._gc_pauses: deque[tuple[int, float]] = deque()
        self._gc_started = 0.0
        self.request_timeout = request_timeout
        self.idle_timeout = idle_timeout
        self.drain_timeout = drain_timeout
        self.chunk_threshold = chunk_threshold
        # Trace ids: a short random run prefix plus a sequence number, so
        # ids are unique across restarts but cheap and log-sortable.
        self._trace_prefix = f"{random.getrandbits(32):08x}"
        self._trace_seq = itertools.count(1)
        self._servers: list[asyncio.base_events.Server] = []
        self._address: tuple[str, int] | None = None
        self._tasks: set[asyncio.Task] = set()
        #: connections waiting for a request (their first, or the next)
        self._parked: set[asyncio.StreamWriter] = set()
        #: set by close(): no new connections, responses say Connection: close
        self.closing = False
        #: populated by close(): {"in_flight", "cancelled", "seconds"}
        self.drain_report: dict | None = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves ephemeral port 0)."""
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def port(self) -> int:
        return self.address[1]

    def connections(self) -> dict:
        """Slot occupancy, for a tier's ``/__health__`` payload."""
        return {
            "accepted": self.serve_stats.connections_accepted,
            "rejected": self.serve_stats.connections_rejected,
            "active": self.serve_stats.active_connections,
            "peak": self.serve_stats.peak_connections,
            "slots": self.max_connections,
        }

    async def start(self) -> None:
        for where in self._listen_on:
            self._servers.append(
                await asyncio.start_server(self._accepted, **where)
            )
        # Kept: a closed listener no longer knows where it was bound.
        self._address = self._servers[0].sockets[0].getsockname()[:2]
        self.serve_stats.started_at = self.clock()
        if self.metrics is not None:
            gc.callbacks.append(self._on_gc)

    async def serve_forever(self) -> None:
        if not self._servers:
            await self.start()
        with contextlib.suppress(asyncio.CancelledError):
            await self._servers[0].serve_forever()

    async def close(self) -> None:
        """Graceful, idle-aware drain; a second call is a no-op.

        Stop accepting, shut connections waiting for a request at once,
        give connections with a request in flight ``drain_timeout`` to
        finish it, cancel the rest.  ``drain_report`` counts only the
        in-flight ones.
        """
        if self.closing:
            return
        self.closing = True
        with contextlib.suppress(ValueError):  # never started, or no registry
            gc.callbacks.remove(self._on_gc)
        started = self.clock()
        for server in self._servers:
            server.close()
        for writer in list(self._parked):
            writer.close()
        in_flight = len(self._tasks) - len(self._parked)
        cancelled = 0
        if self._tasks:
            _, pending = await asyncio.wait(
                set(self._tasks), timeout=self.drain_timeout
            )
            cancelled = len(pending)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        # Only now: since Python 3.12 wait_closed() also waits for every
        # accepted connection, which is what the drain above bounds.
        for server in self._servers:
            await server.wait_closed()
        self.drain_report = {
            "in_flight": in_flight,
            "cancelled": cancelled,
            "seconds": round(self.clock() - started, 4),
        }

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- collector pauses ------------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        """``gc.callbacks`` hook, registered from ``start()`` to ``close()``.

        Runs inside the collector, on whichever thread allocated last —
        possibly one that holds the registry's lock — so it only stashes.
        """
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self._gc_pauses.append(
                (info["generation"], time.perf_counter() - self._gc_started)
            )

    def _flush_gc_pauses(self) -> None:
        while self._gc_pauses:
            generation, seconds = self._gc_pauses.popleft()
            self.metrics.observe(
                "gc_pause_seconds",
                seconds,
                {"generation": str(generation)},
                help="stop-the-world cyclic GC collections (count = collections)",
            )

    # -- connection handling ---------------------------------------------------

    def _accepted(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.ensure_future(self._serve_connection(reader, writer))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.closing or self.serve_stats.active_connections >= self.max_connections:
            # All connection slots are taken: turn the connection away
            # (the DES capacity model's rejection path) instead of queueing.
            wire = serialize_response(
                Response(status=503, body=b"connection slots exhausted"),
                keep_alive=False,
            )
            self.serve_stats.on_connection_rejected(len(wire))
            with contextlib.suppress(Exception):
                writer.write(wire)
                await writer.drain()
            writer.close()
            return
        self.serve_stats.on_connection_open()
        try:
            await self._request_loop(reader, writer)
        finally:
            self.serve_stats.on_connection_close()
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _request_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            # Parked while it waits: drain closes it at once.  A request
            # already on the wire races that close exactly as it races a
            # peer's keep-alive timeout; the client retries on a reset.
            self._parked.add(writer)
            try:
                parsed = await asyncio.wait_for(
                    read_request(reader), self.idle_timeout
                )
            except (asyncio.TimeoutError, ConnectionError):
                return
            except ProtocolError as exc:
                self.serve_stats.protocol_errors += 1
                # The peer may already be gone (half-closed socket mid
                # error) — failing to deliver the 4xx is not an event.
                with contextlib.suppress(ConnectionError, OSError):
                    await self._write(
                        writer,
                        Response(status=exc.status, body=str(exc).encode()),
                        keep_alive=False,
                    )
                return
            finally:
                self._parked.discard(writer)
            if parsed is None:
                return  # clean EOF
            if not await self._serve_one(writer, parsed):
                return

    async def _serve_one(
        self, writer: asyncio.StreamWriter, parsed: ParsedRequest
    ) -> bool:
        request = parsed.request
        self.serve_stats.requests += 1
        self.serve_stats.bytes_in += parsed.wire_bytes
        # Trace id: honour a client-supplied X-Trace-Id, mint one
        # otherwise.  The request carries it to whatever the handler
        # calls (engine, upstream, fleet peer) and the response echoes
        # *this* request's id, whatever a cached or relayed response held.
        trace_id = (
            request.headers.get(HEADER_TRACE_ID)
            or f"{self._trace_prefix}-{next(self._trace_seq):06x}"
        )
        request.headers.set(HEADER_TRACE_ID, trace_id)
        started = self.clock()
        try:
            response = await asyncio.wait_for(
                self._respond(request), self.request_timeout
            )
        except asyncio.TimeoutError:
            # The handler's work may still be running (a worker thread
            # cannot be cancelled); only this response is abandoned.
            self.serve_stats.timeouts += 1
            response = Response(status=504, body=b"request timed out")
        except Exception as exc:
            # Defensive: a handler bug must cost one response, not the
            # server — but its cause is classified and kept, not discarded.
            self.serve_stats.on_exception(exc)
            logger.exception("unhandled error serving %s", request.url)
            response = Response(status=500, body=b"internal error")
        response.headers.set(HEADER_TRACE_ID, trace_id)
        keep_alive = parsed.keep_alive and not self.closing
        try:
            await self._write(
                writer, response, keep_alive=keep_alive,
                latency=self.clock() - started,
            )
        except ConnectionError:
            return False
        return keep_alive

    async def _respond(self, request: Request) -> Response:
        _, remainder = split_server(request.url)
        if remainder == HEALTH_PATH:
            self.serve_stats.health_checks += 1
            body = json.dumps(await self._health(), sort_keys=True)
            content_type = "application/json"
        elif remainder == METRICS_PATH:
            self.serve_stats.metrics_scrapes += 1
            self._flush_gc_pauses()
            body = "\n".join(await self._metrics_lines()) + "\n"
            content_type = PROMETHEUS_CONTENT_TYPE
        else:
            return await self._handle(request)
        response = Response(status=200, body=body.encode())
        response.headers.set("Content-Type", content_type)
        if self._stamp is not None:
            self._stamp(response)
        return response

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        *,
        keep_alive: bool,
        latency: float | None = None,
    ) -> None:
        chunked = len(response.body) >= self.chunk_threshold
        started = time.perf_counter()
        wire = serialize_response(response, keep_alive=keep_alive, chunked=chunked)
        writer.write(wire)
        await writer.drain()
        if self.metrics is not None:
            self.metrics.observe(
                "server_stage_seconds",
                time.perf_counter() - started,
                {"stage": "write"},
                help="serve-layer stage durations (serialize + drain)",
            )
            # Per response, so the stash stays short between scrapes.
            self._flush_gc_pauses()
        self.serve_stats.on_response(response, len(wire), latency)
