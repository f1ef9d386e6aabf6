"""Async load generator: replay ``repro.workload`` traces over live HTTP.

The client side of the live capacity experiment (Section VI-C).  Replays
a :class:`~repro.workload.trace.Trace` against a running
:class:`~repro.serve.server.DeltaHTTPServer`, acting as the whole client
population at once: one :class:`~repro.client.protocol.ClientProtocol`
(per-user base refs, a base-file cache shared across users — the role the
proxy tier plays in Fig. 2 — and delta reconstruction) driven over real
connections, with byte-for-byte verification of what it reconstructs.

Two arrival disciplines:

* **closed loop** — ``concurrency`` workers over keep-alive connections,
  each issuing its next request as soon as the previous response is
  reconstructed.  Measures sustainable throughput (ApacheBench ``-c N``
  style, the SiteStory evaluation's method).
* **open loop** — Poisson arrivals at ``rate`` req/s, each request on a
  pooled connection, in-flight unbounded up to ``concurrency``
  connections.  Measures behaviour under offered load independent of
  service rate (the DES sweep's discipline).

Client-side resilience: with ``retries > 0`` the generator retries
``502``/``503``/``504`` answers *and* transport-level failures —
connection resets, refused connects, closes mid-response — with capped
exponential backoff (reconnecting when the server closed the
connection), counts each retry per trigger (``retries_by_status``;
transport retries appear under the ``"reset"`` key), and keeps verifying
every byte after recovery — a retried request must still reconstruct
exactly.  Transport failures are the client-visible signature of a fleet
worker being restarted, so they follow the same retry contract as 503.  Responses
the server marks ``X-Degraded`` (stale base-files during an origin
outage) are counted separately and excluded from freshness verification:
they are intentionally not fresh renders.

Every response is verified client-side: delta responses must apply
cleanly (the wire format's target checksum makes a wrong reconstruction
impossible to miss) and all other bodies must match their
``X-Body-Digest`` tag.  An optional ``verify_render`` hook additionally
compares the reconstructed document against an independent origin render
at the server-stamped ``X-Served-At`` instant.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable

from repro.client.protocol import ClientProtocol, FetchOutcome
from repro.http.messages import HEADER_TRACE_ID, Request, Response
from repro.metrics import LatencySample, render_table
from repro.serve.protocol import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    ConnectionClosedError,
    ParsedResponse,
    ProtocolError,
    digest_matches,
    read_response,
    serialize_request,
)
from repro.workload.trace import Trace, TraceRecord

#: ``retries_by_status`` key for transport-level retries (reset/refused/
#: closed mid-exchange) as opposed to status-triggered ones (502/503/504)
RETRY_TRANSPORT = "reset"

#: (url, user, served_at) -> expected document bytes, or None to skip
VerifyRender = Callable[[str, str, float], bytes | None]


@dataclass(slots=True)
class LoadGenConfig:
    """Knobs of one load-generation run."""

    #: where TCP connections go — a server or a proxy tier in front of
    #: one; the Host header comes from each trace URL, not from here
    host: str = "127.0.0.1"
    port: int = 0
    mode: str = "closed"  # "closed" | "open"
    #: closed loop: worker count; open loop: connection-pool ceiling
    concurrency: int = 8
    #: open loop only: Poisson arrival rate, requests/second
    rate: float = 100.0
    max_requests: int | None = None
    request_timeout: float = 15.0
    verify: bool = True
    #: retry attempts per request for 502/503/504 answers (0 = give up)
    retries: int = 0
    retry_backoff: float = 0.05
    retry_backoff_cap: float = 0.5
    seed: int = 11

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ValueError(f"mode must be 'closed' or 'open', got {self.mode!r}")
        if self.concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.max_requests is not None and self.max_requests < 0:
            raise ValueError("max_requests must be >= 0")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.retry_backoff < 0 or self.retry_backoff_cap < 0:
            raise ValueError("retry backoff values must be >= 0")


@dataclass(slots=True)
class LoadReport:
    """Client-side measurement of one replay."""

    name: str
    mode: str
    requests: int = 0
    completed: int = 0
    deltas: int = 0
    fulls: int = 0
    base_fetches: int = 0
    delta_failures: int = 0
    verify_failures: int = 0
    errors: int = 0
    rejected: int = 0
    timeouts: int = 0
    #: responses the server marked X-Degraded (stale base / 502 fallback)
    degraded: int = 0
    #: retry attempts issued, keyed by the status that triggered them
    retries_by_status: Counter = field(default_factory=Counter)
    #: every response status observed (including retried attempts)
    status_counts: Counter = field(default_factory=Counter)
    wire_bytes_in: int = 0
    wire_bytes_out: int = 0
    #: wire bytes of document responses only (excludes base-file fetches)
    document_wire_bytes: int = 0
    document_bytes: int = 0
    base_bytes: int = 0
    duration: float = 0.0
    peak_in_flight: int = 0
    latencies: LatencySample = field(default_factory=LatencySample)
    #: slowest completed requests as ``(latency_s, trace_id, url)`` — the
    #: trace id matches the server's X-Trace-Id, so a slow request can be
    #: looked up against the server-side X-Stage-Times stage timings
    slowest: list[tuple[float, str, str]] = field(default_factory=list)

    #: how many slowest requests are retained
    SLOWEST_KEPT = 5

    def note_latency(self, latency: float, trace_id: str, url: str) -> None:
        """Record a completed request, keeping the top-N slowest (heap)."""
        self.latencies.add(latency)
        entry = (latency, trace_id, url)
        if len(self.slowest) < self.SLOWEST_KEPT:
            heapq.heappush(self.slowest, entry)
        else:
            heapq.heappushpop(self.slowest, entry)

    @property
    def rps(self) -> float:
        return self.completed / self.duration if self.duration > 0 else 0.0

    @property
    def mean_document_wire_bytes(self) -> float:
        return self.document_wire_bytes / self.completed if self.completed else 0.0

    def latency_ms(self, q: float) -> float:
        return self.latencies.percentile(q) * 1000.0

    def render(self, title: str | None = None) -> str:
        rows = [
            ["requests / completed", f"{self.requests} / {self.completed}"],
            ["deltas / fulls / base fetches",
             f"{self.deltas} / {self.fulls} / {self.base_fetches}"],
            ["delta failures / verify failures",
             f"{self.delta_failures} / {self.verify_failures}"],
            ["errors / rejected / timeouts",
             f"{self.errors} / {self.rejected} / {self.timeouts}"],
            ["degraded responses", self.degraded],
            ["retries (by status)",
             ", ".join(
                 f"{status}:{count}"
                 # str() key: the counter mixes int statuses with the
                 # "reset" transport bucket.
                 for status, count in sorted(
                     self.retries_by_status.items(), key=lambda kv: str(kv[0])
                 )
             ) or "none"],
            ["wire bytes in / out", f"{self.wire_bytes_in} / {self.wire_bytes_out}"],
            ["document / base-file bytes",
             f"{self.document_bytes} / {self.base_bytes}"],
            ["mean document response on wire",
             f"{self.mean_document_wire_bytes:.0f} B"],
            ["duration", f"{self.duration:.2f} s"],
            ["throughput", f"{self.rps:.1f} req/s"],
            ["latency mean / p50 / p90 / p99",
             f"{self.latencies.mean * 1000:.1f} / {self.latency_ms(50):.1f} / "
             f"{self.latency_ms(90):.1f} / {self.latency_ms(99):.1f} ms"],
            ["peak in-flight", self.peak_in_flight],
            ["slowest (latency, trace id)",
             ", ".join(
                 f"{latency * 1000:.1f}ms {trace}"
                 for latency, trace, _ in sorted(self.slowest, reverse=True)[:3]
             ) or "none"],
        ]
        return render_table(
            ["metric", "value"],
            rows,
            title=title or f"loadgen {self.name} ({self.mode} loop)",
        )


class _Connection:
    """One keep-alive client connection."""

    __slots__ = ("reader", "writer", "alive")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.alive = True

    def close(self) -> None:
        self.alive = False
        try:
            self.writer.close()
        except Exception:
            pass


class LoadGenerator:
    """Replays traces against a live server and verifies every response."""

    def __init__(
        self, config: LoadGenConfig, *, verify_render: VerifyRender | None = None
    ) -> None:
        self.config = config
        self._verify_render = verify_render
        self._rng = random.Random(config.seed)
        #: one protocol instance for the whole population: per-user base
        #: refs, base-files shared across users (the proxy's role)
        self.protocol = ClientProtocol(
            intact=_digest_intact if config.verify else None
        )

    # -- public API ------------------------------------------------------------

    async def run(self, trace: Trace) -> LoadReport:
        records = list(trace)
        if self.config.max_requests is not None:
            records = records[: self.config.max_requests]
        report = LoadReport(name=trace.name, mode=self.config.mode)
        started = time.perf_counter()
        if self.config.mode == "closed":
            await self._run_closed(records, report)
        else:
            await self._run_open(records, report)
        report.duration = time.perf_counter() - started
        return report

    def held_base_refs(self) -> list[str]:
        """Base-file refs currently cached (diagnostics)."""
        return sorted(self.protocol.bases)

    # -- arrival disciplines ---------------------------------------------------

    async def _run_closed(
        self, records: list[TraceRecord], report: LoadReport
    ) -> None:
        queue: deque[TraceRecord] = deque(records)
        workers = min(self.config.concurrency, max(len(records), 1))
        report.peak_in_flight = workers

        async def worker() -> None:
            conn: _Connection | None = None
            try:
                while True:
                    try:
                        record = queue.popleft()
                    except IndexError:
                        return
                    if conn is None or not conn.alive:
                        try:
                            conn = await self._connect_retrying(report)
                        except OSError:
                            report.requests += 1
                            report.errors += 1
                            conn = None
                            continue
                    if not await self._one_record(conn, record, report):
                        conn.close()
            finally:
                if conn is not None:
                    conn.close()

        await asyncio.gather(*(worker() for _ in range(workers)))

    async def _run_open(
        self, records: list[TraceRecord], report: LoadReport
    ) -> None:
        pool: asyncio.Queue[_Connection] = asyncio.Queue()
        created = 0
        in_flight = 0
        tasks: list[asyncio.Task] = []

        async def checkout() -> _Connection:
            nonlocal created
            while True:
                try:
                    conn = pool.get_nowait()
                except asyncio.QueueEmpty:
                    pass
                else:
                    if conn.alive:
                        return conn
                    created -= 1  # dead connection leaves the pool
                    continue
                if created < self.config.concurrency:
                    created += 1
                    try:
                        return await self._connect_retrying(report)
                    except OSError:
                        created -= 1
                        raise
                conn = await pool.get()
                if conn.alive:
                    return conn
                created -= 1

        async def one(record: TraceRecord) -> None:
            nonlocal in_flight
            in_flight += 1
            report.peak_in_flight = max(report.peak_in_flight, in_flight)
            try:
                try:
                    conn = await checkout()
                except OSError:
                    report.requests += 1
                    report.errors += 1
                    return
                if await self._one_record(conn, record, report):
                    pool.put_nowait(conn)
                else:
                    conn.close()
                    pool.put_nowait(conn)  # wake waiters; dead conns are skipped
            finally:
                in_flight -= 1

        for record in records:
            await asyncio.sleep(self._rng.expovariate(self.config.rate))
            tasks.append(asyncio.ensure_future(one(record)))
        if tasks:
            await asyncio.gather(*tasks)
        while not pool.empty():
            pool.get_nowait().close()

    # -- request execution -----------------------------------------------------

    async def _connect(self) -> _Connection:
        reader, writer = await asyncio.open_connection(
            self.config.host, self.config.port
        )
        return _Connection(reader, writer)

    def _retry_delay(self, attempt: int) -> float:
        return min(
            self.config.retry_backoff_cap,
            self.config.retry_backoff * (2 ** (attempt - 1)),
        )

    async def _connect_retrying(self, report: LoadReport) -> _Connection:
        """Connect, retrying refused/reset connects under the retry budget.

        A refused connect is what a fleet looks like for the instant
        every worker is mid-restart — as retryable as a 503 rejection.
        """
        attempt = 0
        while True:
            try:
                return await self._connect()
            except OSError:
                if attempt >= self.config.retries:
                    raise
                attempt += 1
                report.retries_by_status[RETRY_TRANSPORT] += 1
                await asyncio.sleep(self._retry_delay(attempt))

    async def _roundtrip_retrying(
        self, conn: _Connection, request: Request, report: LoadReport
    ) -> ParsedResponse:
        """One roundtrip with transport-level retries.

        Resets, refused reconnects, and closes mid-response (a SIGKILLed
        worker drops its accepted sockets) retry on a fresh connection
        under the same budget and backoff as 502/503/504 answers, counted
        under the ``"reset"`` key.  Framing errors (plain
        :class:`ProtocolError`) are bugs, not restarts — they propagate.
        """
        attempt = 0
        while True:
            try:
                if not conn.alive:
                    await self._reopen(conn)
                return await self._roundtrip(conn, request, report)
            except (ConnectionClosedError, ConnectionError, OSError):
                conn.alive = False
                if attempt >= self.config.retries:
                    raise
                attempt += 1
                report.retries_by_status[RETRY_TRANSPORT] += 1
                await asyncio.sleep(self._retry_delay(attempt))

    async def _roundtrip(
        self, conn: _Connection, request: Request, report: LoadReport
    ) -> ParsedResponse:
        wire = serialize_request(request)
        report.wire_bytes_out += len(wire)
        conn.writer.write(wire)
        await conn.writer.drain()
        parsed = await asyncio.wait_for(
            read_response(conn.reader), self.config.request_timeout
        )
        report.wire_bytes_in += parsed.wire_bytes
        if not parsed.keep_alive:
            conn.alive = False
        return parsed

    async def _one_record(
        self, conn: _Connection, record: TraceRecord, report: LoadReport
    ) -> bool:
        """Issue one trace record; returns False if the connection died."""
        report.requests += 1
        #: (answer, latency) of every round-trip, in order
        exchanges: list[tuple[ParsedResponse, float]] = []

        async def send(request: Request) -> Response:
            exchanges.append(await self._exchange(conn, request, report))
            return exchanges[-1][0].response

        try:
            outcome = await self.protocol.fetch(record.url, record.user, send)
        except asyncio.TimeoutError:
            report.timeouts += 1
            return False
        except (ProtocolError, ConnectionError, OSError):
            report.errors += 1
            return False
        self._fold(record, outcome, exchanges, report)
        return conn.alive

    async def _reopen(self, conn: _Connection) -> None:
        """Replace a dead connection's streams in place (for retries)."""
        conn.close()
        fresh = await self._connect()
        conn.reader, conn.writer = fresh.reader, fresh.writer
        conn.alive = True

    async def _exchange(
        self, conn: _Connection, request: Request, report: LoadReport
    ) -> tuple[ParsedResponse, float]:
        """One request to its final answer, with the last attempt's latency.

        ``502``/``503``/``504`` are transient server-side conditions: back
        off (capped exponential) and try again — the retrying roundtrip
        reconnects if the server closed the connection, which 503
        rejections do.
        """
        attempt = 0
        while True:
            started = time.perf_counter()
            parsed = await self._roundtrip_retrying(conn, request, report)
            latency = time.perf_counter() - started
            status = parsed.response.status
            report.status_counts[status] += 1
            if status not in (502, 503, 504) or attempt >= self.config.retries:
                return parsed, latency
            attempt += 1
            report.retries_by_status[status] += 1
            await asyncio.sleep(self._retry_delay(attempt))

    def _fold(
        self, record: TraceRecord, outcome: FetchOutcome,
        exchanges: list[tuple[ParsedResponse, float]], report: LoadReport,
    ) -> None:
        """Account one fetch outcome in the report."""
        response = outcome.response
        report.delta_failures += outcome.delta_failures
        report.verify_failures += outcome.damaged
        report.base_fetches += outcome.base_fetches
        report.base_bytes += outcome.base_bytes
        if response.degraded is not None:
            report.degraded += 1
        document = outcome.document
        if document is None:
            if response.status == 503:
                report.rejected += 1
            else:
                report.errors += 1
            return
        report.completed += 1
        if outcome.delta:
            report.deltas += 1
        else:
            report.fulls += 1
        # Latency is the first answer's; the wire size is that of the
        # answer the document came from (the refetch's after a bad delta).
        report.note_latency(
            exchanges[0][1], response.headers.get(HEADER_TRACE_ID) or "-", record.url
        )
        report.document_wire_bytes += next(
            parsed.wire_bytes for parsed, _ in exchanges if parsed.response is response
        )
        report.document_bytes += len(document)
        self._check_render(record.url, record.user, response, document, report)

    def _check_render(
        self, url: str, user: str, response: Response, document: bytes,
        report: LoadReport,
    ) -> None:
        if self._verify_render is None:
            return
        if response.degraded is not None:
            # Stale-base degradation is intentionally not a fresh render;
            # byte integrity was already verified via the digest.
            return
        served_at_header = response.headers.get(HEADER_SERVED_AT)
        if served_at_header is None:
            return
        try:
            served_at = float(served_at_header)
        except ValueError:
            report.verify_failures += 1
            return
        expected = self._verify_render(url, user, served_at)
        if expected is not None and expected != document:
            report.verify_failures += 1


def _digest_intact(response: Response) -> bool:
    return digest_matches(response.headers.get(HEADER_BODY_DIGEST), response.body)


async def replay_trace(
    trace: Trace, config: LoadGenConfig, *, verify_render: VerifyRender | None = None
) -> LoadReport:
    """One-call façade: replay ``trace`` per ``config`` and report."""
    return await LoadGenerator(config, verify_render=verify_render).run(trace)
