"""The benchmark's client: one asyncio process, a couple of keep-alive sockets.

Plays a whole client population the way ``repro.serve.loadgen`` does —
per-(user, url) base bookkeeping, a shared base-file cache, delta
reconstruction — but keeps every raw sample, times a document from its
due/send instant until its bytes are reconstructed *and verified* (base
fetch and delta apply included), and checks each document three ways:
the delta wire checksum or ``X-Body-Digest``, and an independent
twin-origin re-render at the response's ``X-Served-At``.

With a :class:`Tracer` attached, every document also leaves spans
(``doc`` > ``serialize``, ``wait``, ``reconstruct``, ``base_fetch``,
``verify``; server stages from ``X-Stage-Times`` as children of ``wait``)
and the raw material the offline ledger replays.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import random
import zlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable, Iterator

import spec
from repro.core.delta_server import DeltaServer, parse_stage_times
from repro.delta import DEFAULT_MAX_TARGET_LENGTH, DeltaError, apply_delta, decompress
from repro.fleet import HEADER_FLEET_WORKER
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_CONTENT_ENCODING,
    HEADER_STAGE_TIMES,
    Request,
    Response,
    parse_base_ref,
)
from repro.origin.server import OriginServer
from repro.proxy.server import HEADER_PROXY_CACHE
from repro.serve.protocol import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    ProtocolError,
    digest_matches,
    read_response,
    serialize_request,
)
from repro.url.parts import split_server
from repro.workload.trace import TraceRecord

#: anything a roundtrip or a reconstruction can raise that fails one document
FAILURES = (
    ProtocolError, ConnectionError, OSError, asyncio.TimeoutError,
    DeltaError, zlib.error, ValueError,
)


def stage_total(stages: dict[str, float]) -> float:
    """Seconds the engine spent on one request, per its ``X-Stage-Times``.

    ``store_commit`` is timed inside the ``classify`` window (the commit
    happens while ingesting), so it is a part of that stage, not a sibling.
    """
    return sum(seconds for stage, seconds in stages.items() if stage != "store_commit")


def request_as(user: str, url: str) -> Request:
    """A GET for ``url`` identified as ``user`` (the ``uid`` cookie)."""
    return Request(url=url, cookies={"uid": user}, client_id=user)


class Population:
    """Client-side delta state of one set of users sharing a base cache."""

    def __init__(self) -> None:
        self.base_cache: dict[str, bytes] = {}
        self.url_refs: dict[tuple[str, str], str] = {}

    def request_for(self, record: TraceRecord) -> Request:
        request = request_as(record.user, record.url)
        held = self.url_refs.get((record.user, record.url))
        if held is not None and held in self.base_cache:
            request.headers.set(HEADER_ACCEPT_DELTA, held)
        return request

    def reconstruct(self, response: Response) -> bytes:
        """Document bytes of a 200 response; raises on any integrity failure."""
        if not response.is_delta:
            if not digest_matches(
                response.headers.get(HEADER_BODY_DIGEST), response.body
            ):
                raise ValueError("body digest mismatch")
            return response.body
        payload = response.body
        if response.headers.get(HEADER_CONTENT_ENCODING) == "deflate":
            payload = decompress(payload)
        # apply_delta checks the wire's target checksum
        return apply_delta(
            payload,
            self.base_cache[response.delta_base_ref or ""],
            max_target_length=DEFAULT_MAX_TARGET_LENGTH,
        )

    def base_url_to_fetch(self, record: TraceRecord, response: Response) -> str | None:
        """Adopt the advertised base ref; the URL to fetch if it is not held."""
        ref = response.base_file_ref
        if ref is None:
            return None
        self.url_refs[(record.user, record.url)] = ref
        if ref in self.base_cache:
            return None
        class_id, version = parse_base_ref(ref)
        return DeltaServer.base_file_url(split_server(record.url)[0], class_id, version)


class TwinOrigin:
    """An origin identical to the servers', for re-rendering what they served."""

    def __init__(self, site) -> None:
        self._origin = OriginServer([site])

    def render(self, record: TraceRecord, served_at: float) -> bytes:
        return self._origin.handle(request_as(record.user, record.url), served_at).body

    def matches(self, record: TraceRecord, served_at: float, document: bytes) -> bool:
        if self.render(record, served_at) == document:
            return True
        # X-Served-At is rounded to the microsecond; under churn the true
        # instant may sit just across an epoch edge from the rounded one.
        return any(
            self.render(record, served_at + nudge) == document
            for nudge in (-5e-7, 5e-7)
        )


@dataclass(slots=True)
class Sample:
    """One attempted document."""

    ok: bool
    due: float
    end: float
    conn: int
    wire_in: int = 0  # response bytes incl. headers, document + base fetch
    doc_bytes: int = 0
    is_delta: bool = False
    served_at: float = 0.0
    error: str = ""
    detail: "Detail | None" = None  # traced phases only

    @property
    def latency(self) -> float:
        return self.end - self.due


@dataclass(slots=True)
class Detail:
    """What the tracer keeps per document beyond the :class:`Sample`."""

    serialize: float
    wait: float
    reconstruct: float
    base_fetch: float  # 0 when the document needed no base-file
    verify: float
    stages: dict[str, float]
    worker: int | None
    base_proxy_state: str | None  # X-Proxy-Cache of the base-file fetch


@dataclass
class Tracer:
    """In-memory spans plus the recorded material of the offline ledger."""

    spans: list[tuple] = field(default_factory=list)
    requests: int = 0
    #: (record, request wire, response) of the first documents
    exchanges: list[tuple[TraceRecord, bytes, Response]] = field(default_factory=list)
    #: (base, document) pairs of delta responses
    pairs: list[tuple[bytes, bytes]] = field(default_factory=list)
    keep: int = 400

    def span(self, name: str, start: float, end: float, parent: int | None,
             request_id: int) -> int:
        span_id = len(self.spans) + 1
        self.spans.append((span_id, name, start, end, parent, request_id))
        return span_id

    def flush(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, request_id in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request_id,
                }) + "\n")


class _Connection:
    __slots__ = ("index", "port", "reader", "writer")

    def __init__(self, index: int, port: int) -> None:
        self.index = index
        self.port = port
        self.reader = self.writer = None

    async def open(self) -> None:
        self.close()
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", self.port)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None

    async def close_wait(self) -> None:
        """Close and wait until the socket is really gone (servers drain on it)."""
        writer = self.writer
        self.close()
        if writer is not None:
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def roundtrip(self, wire: bytes):
        if self.writer is None:
            await self.open()
        self.writer.write(wire)
        await self.writer.drain()
        parsed = await asyncio.wait_for(
            read_response(self.reader), spec.REQUEST_TIMEOUT
        )
        if not parsed.keep_alive:
            self.close()
        return parsed


Work = Iterable[tuple[Population, TraceRecord]]


class Driver:
    """Replays ``(population, record)`` work over the fixed connections."""

    def __init__(self, entry_ports: list[int], twin: TwinOrigin) -> None:
        self._conns = [
            _Connection(k, entry_ports[k % len(entry_ports)])
            for k in range(spec.CONNECTIONS)
        ]
        self._twin = twin
        self.tracer: Tracer | None = None
        #: test hook: flips one byte of every n-th response body
        self.corrupt_every = 0
        self._responses = 0

    async def connect(self) -> None:
        for conn in self._conns:
            await conn.open()

    async def close(self) -> None:
        for conn in self._conns:
            await conn.close_wait()

    # -- arrival disciplines ---------------------------------------------------

    async def closed_loop(
        self, work: Work, deadline: float | None = None,
        *, mark_every: int = 0, mark: Callable[[], None] | None = None,
    ) -> list[Sample]:
        """Each connection issues its next document when the last is verified.

        ``mark`` is called after every ``mark_every`` documents, so the
        caller can read clocks at the edges of equal blocks of work.
        """
        samples: list[Sample] = []
        source = iter(work)

        async def worker(conn: _Connection) -> None:
            for population, record in source:
                if deadline is not None and perf_counter() >= deadline:
                    return
                samples.append(await self._document(conn, population, record, None))
                if mark_every and len(samples) % mark_every == 0:
                    mark()

        await asyncio.gather(*(worker(conn) for conn in self._conns))
        return samples

    async def open_loop(
        self, work: Work, offsets: list[float]
    ) -> tuple[list[Sample], list[float]]:
        """Documents fall due at ``start + offset`` whatever the server does.

        Returns the samples and, per arrival, how late the generator
        handed it to the connections.
        """
        samples: list[Sample] = []
        lags: list[float] = []
        queue: asyncio.Queue = asyncio.Queue()
        origin = perf_counter()

        async def generator() -> None:
            for offset, (population, record) in zip(offsets, work):
                due = origin + offset
                delay = due - perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                lags.append(max(0.0, perf_counter() - due))
                queue.put_nowait((population, record, due))
            for _ in self._conns:
                queue.put_nowait(None)

        async def worker(conn: _Connection) -> None:
            while (item := await queue.get()) is not None:
                samples.append(await self._document(conn, *item))

        await asyncio.gather(generator(), *(worker(conn) for conn in self._conns))
        return samples, lags

    # -- one document ----------------------------------------------------------

    async def _document(
        self, conn: _Connection, population: Population, record: TraceRecord,
        due: float | None,
    ) -> Sample:
        start = perf_counter()
        sample = Sample(False, start if due is None else due, start, conn.index)
        try:
            await self._fetch(conn, population, record, sample)
            sample.ok = True
        except FAILURES as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
            conn.close()
            # a base the client cannot use is dropped, as a browser would
            population.url_refs.pop((record.user, record.url), None)
        sample.end = perf_counter()
        return sample

    def _maybe_corrupt(self, response: Response) -> None:
        self._responses += 1
        if self.corrupt_every and self._responses % self.corrupt_every == 0:
            body = bytearray(response.body)
            body[len(body) // 2] ^= 0x01
            response.body = bytes(body)

    async def _fetch(
        self, conn: _Connection, population: Population, record: TraceRecord,
        sample: Sample,
    ) -> None:
        t0 = perf_counter()
        request = population.request_for(record)
        wire = serialize_request(request)
        t1 = perf_counter()
        parsed = await conn.roundtrip(wire)
        t2 = perf_counter()
        response = parsed.response
        sample.wire_in = parsed.wire_bytes
        if response.status != 200:
            raise ValueError(f"status {response.status}")
        self._maybe_corrupt(response)
        document = population.reconstruct(response)
        t3 = perf_counter()
        sample.doc_bytes = len(document)
        sample.is_delta = response.is_delta
        sample.served_at = float(response.headers.get(HEADER_SERVED_AT) or "nan")

        base_url = population.base_url_to_fetch(record, response)
        base_state = None
        if base_url is not None:
            base = await conn.roundtrip(
                serialize_request(request_as(record.user, base_url))
            )
            sample.wire_in += base.wire_bytes
            if base.response.status != 200 or not digest_matches(
                base.response.headers.get(HEADER_BODY_DIGEST), base.response.body
            ):
                raise ValueError(f"base-file {base_url}: status {base.response.status}")
            population.base_cache[response.base_file_ref] = base.response.body
            base_state = base.response.headers.get(HEADER_PROXY_CACHE)
        t4 = perf_counter()

        if not self._twin.matches(record, sample.served_at, document):
            raise ValueError("document differs from the twin origin's render")
        t5 = perf_counter()

        tracer = self.tracer
        if tracer is None:
            return
        stages = parse_stage_times(response.headers.get(HEADER_STAGE_TIMES))
        worker = response.headers.get(HEADER_FLEET_WORKER)
        tracer.requests += 1
        request_id = tracer.requests
        sample.detail = Detail(
            serialize=t1 - t0, wait=t2 - t1, reconstruct=t3 - t2,
            base_fetch=t4 - t3 if base_url else 0.0, verify=t5 - t4,
            stages=stages, worker=int(worker) if worker is not None else None,
            base_proxy_state=base_state,
        )
        doc = tracer.span("doc", sample.due, t5, None, request_id)
        tracer.span("serialize", t0, t1, doc, request_id)
        wait = tracer.span("wait", t1, t2, doc, request_id)
        # The header carries durations, not instants: lay the server's
        # stages end to end so that they finish when the response arrived.
        cursor = t2 - stage_total(stages)
        for stage, seconds in stages.items():
            if stage == "store_commit":
                continue
            span = tracer.span(
                f"server.{stage}", cursor, cursor + seconds, wait, request_id
            )
            cursor += seconds
            if stage == "classify" and "store_commit" in stages:
                tracer.span(
                    "server.store_commit", cursor - stages["store_commit"], cursor,
                    span, request_id,
                )
        tracer.span("reconstruct", t2, t3, doc, request_id)
        if base_url is not None:
            tracer.span("base_fetch", t3, t4, doc, request_id)
        tracer.span("verify", t4, t5, doc, request_id)
        if len(tracer.exchanges) < tracer.keep:
            tracer.exchanges.append((record, wire, response))
            if response.is_delta:
                tracer.pairs.append(
                    (population.base_cache[response.delta_base_ref], document)
                )


# -- work sources --------------------------------------------------------------


def population_rounds(records: list[TraceRecord], populations: int) -> Iterator:
    """Rounds of fresh populations, each replaying its users' share in turn."""
    users = sorted({record.user for record in records})
    owner = {user: i % populations for i, user in enumerate(users)}
    shares = [
        [record for record in records if owner[record.user] == i]
        for i in range(populations)
    ]
    while True:
        for share in shares:
            population = Population()
            for record in share:
                yield population, record


def poisson_offsets(count: int, rate: float, seed: int) -> list[float]:
    """Seeded exponential gaps, scaled so ``count`` arrivals span ``count/rate``."""
    rng = random.Random(seed)
    gaps = [rng.expovariate(1.0) for _ in range(count)]
    scale = (count / rate) / sum(gaps)
    offsets, now = [], 0.0
    for gap in gaps:
        now += gap * scale
        offsets.append(now)
    return offsets
