"""Live-socket tests: the full serve stack over real TCP connections.

Every test binds an ephemeral port on loopback, speaks actual HTTP/1.1
through :mod:`repro.serve.protocol`'s client side, and verifies the
byte-for-byte reconstruction guarantee end to end.  ``pytest-asyncio``
is not a dependency; each test drives its own ``asyncio.run``.
"""

import asyncio

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.delta.apply import apply_delta
from repro.delta.compress import decompress
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_CONTENT_ENCODING,
    Request,
    parse_base_ref,
)
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    LoadGenConfig,
    LoadGenerator,
    build_server,
    digest_matches,
    read_response,
    serialize_request,
)
from repro.serve.server import DeltaHTTPServer
from repro.core.delta_server import DeltaServer
from repro.workload.generator import WorkloadSpec, generate_workload

SITE = "www.live.example"


def make_spec(**overrides) -> SiteSpec:
    defaults = dict(name=SITE, products_per_category=3)
    defaults.update(overrides)
    return SiteSpec(**defaults)


def make_server(**kwargs) -> DeltaHTTPServer:
    spec = kwargs.pop("spec", None) or make_spec()
    kwargs.setdefault(
        "config",
        DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
        ),
    )
    return build_server([SyntheticSite(spec)], **kwargs)


class Client:
    """One keep-alive HTTP connection speaking the repo's wire mapping."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None

    async def connect(self) -> "Client":
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def get(self, url: str, user: str | None = None, accept: str | None = None):
        if self.reader is None:
            await self.connect()
        cookies = {"uid": user} if user else {}
        request = Request(url=url, cookies=cookies, client_id=user or "anonymous")
        if accept:
            request.headers.set(HEADER_ACCEPT_DELTA, accept)
        self.writer.write(serialize_request(request))
        await self.writer.drain()
        parsed = await asyncio.wait_for(read_response(self.reader), 10.0)
        return parsed.response

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


def page_url(server: DeltaHTTPServer) -> str:
    site = server.gateway.origin.site(SITE)
    return site.url_for(site.all_pages()[0])


async def warm_up(client: Client, url: str, users=("u1", "u2", "u3")) -> str:
    """Drive anonymization to READY over the wire; return the advertised ref."""
    ref = None
    for user in users:
        response = await client.get(url, user=user)
        assert response.status == 200
        ref = response.base_file_ref or ref
    assert ref is not None
    return ref


class TestLiveServing:
    def test_full_document_with_digest(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    response = await client.get(page_url(server), user="u1")
                finally:
                    client.close()
                assert response.status == 200
                assert not response.is_delta
                assert digest_matches(
                    response.headers.get(HEADER_BODY_DIGEST), response.body
                )
                assert response.headers.get("Server") == "repro-serve/1.0"
                assert server.stats.full_documents == 1

        asyncio.run(main())

    def test_delta_reconstruction_byte_for_byte(self):
        """The paper's core guarantee, verified entirely client-side."""
        spec = make_spec()
        twin = OriginServer([SyntheticSite(spec)])  # independent renderer

        async def main():
            async with make_server(spec=make_spec()) as server:
                url = page_url(server)
                client = Client(*server.address)
                try:
                    ref = await warm_up(client, url)
                    # Fetch the advertised base-file over the same connection.
                    class_id, version = parse_base_ref(ref)
                    base_url = DeltaServer.base_file_url(SITE, class_id, version)
                    base_response = await client.get(base_url)
                    assert base_response.status == 200
                    assert base_response.cachable
                    assert digest_matches(
                        base_response.headers.get(HEADER_BODY_DIGEST),
                        base_response.body,
                    )
                    # Now request the document as a base-holder: delta comes back.
                    response = await client.get(url, user="u9", accept=ref)
                    assert response.is_delta
                    assert response.delta_base_ref == ref
                    payload = response.body
                    if response.headers.get(HEADER_CONTENT_ENCODING) == "deflate":
                        payload = decompress(payload)
                    document = apply_delta(payload, base_response.body)
                    # Re-render the exact snapshot the server saw.
                    served_at = float(response.headers.get(HEADER_SERVED_AT))
                    request = Request(
                        url=url, cookies={"uid": "u9"}, client_id="u9"
                    )
                    assert document == twin.handle(request, served_at).body
                    assert len(response.body) < 0.2 * len(document)
                    assert server.stats.deltas_served == 1
                finally:
                    client.close()

        asyncio.run(main())

    def test_plain_mode_serves_fulls_only(self):
        async def main():
            async with make_server(mode="plain") as server:
                url = page_url(server)
                client = Client(*server.address)
                try:
                    for user in ("u1", "u2", "u1"):
                        response = await client.get(url, user=user)
                        assert response.status == 200
                        assert not response.is_delta
                        assert response.base_file_ref is None
                finally:
                    client.close()
                assert server.stats.full_documents == 3
                assert server.stats.deltas_served == 0

        asyncio.run(main())

    def test_large_documents_sent_chunked(self):
        async def main():
            # Default ~35 KB documents against a tiny chunk threshold.
            async with make_server(chunk_threshold=1024) as server:
                client = Client(*server.address)
                try:
                    response = await client.get(page_url(server), user="u1")
                finally:
                    client.close()
                assert response.status == 200
                assert digest_matches(
                    response.headers.get(HEADER_BODY_DIGEST), response.body
                )

        asyncio.run(main())

    def test_404_passthrough_over_wire(self):
        async def main():
            async with make_server() as server:
                client = Client(*server.address)
                try:
                    response = await client.get(f"{SITE}/nope?id=0", user="u1")
                finally:
                    client.close()
                assert response.status == 404

        asyncio.run(main())

    def test_malformed_request_gets_400(self):
        async def main():
            async with make_server() as server:
                reader, writer = await asyncio.open_connection(*server.address)
                writer.write(b"NONSENSE\r\n\r\n")
                await writer.drain()
                parsed = await asyncio.wait_for(read_response(reader), 5.0)
                writer.close()
                assert parsed.response.status == 400
                assert server.stats.protocol_errors == 1

        asyncio.run(main())


class TestCapacityBehaviour:
    def test_connection_slots_exhausted_503(self):
        """The paper's 255-connection ceiling, scaled to 1: overflow is
        turned away with 503 instead of queueing."""

        async def main():
            async with make_server(max_connections=1) as server:
                holder = await Client(*server.address).connect()
                try:
                    # Occupy the only slot with a real request.
                    response = await holder.get(page_url(server), user="u1")
                    assert response.status == 200
                    overflow = Client(*server.address)
                    rejected = await overflow.get(page_url(server), user="u2")
                    overflow.close()
                    assert rejected.status == 503
                    assert server.stats.connections_rejected == 1
                finally:
                    holder.close()

        asyncio.run(main())

    def test_slow_dispatch_times_out_504(self):
        async def main():
            async with make_server(
                fault_plan=FaultPlan([FaultRule(kind="latency", delay=0.5)]),
                request_timeout=0.05,
            ) as server:
                client = Client(*server.address)
                try:
                    response = await client.get(page_url(server), user="u1")
                    assert response.status == 504
                    assert server.stats.timeouts == 1
                    # The connection survives; patient requests still work.
                finally:
                    client.close()

        asyncio.run(main())

    def test_event_loop_not_blocked_by_slow_requests(self):
        """Two slow dispatches overlap on worker threads: wall-clock is
        ~1x the injected latency, not 2x serial.  Plain mode, because in
        delta mode requests additionally serialize on the engine lock
        (the paper's single-CPU server) — loop responsiveness is the
        property under test here."""

        async def main():
            async with make_server(
                fault_plan=FaultPlan([FaultRule(kind="latency", delay=0.2)]),
                mode="plain",
            ) as server:
                url = page_url(server)
                loop = asyncio.get_running_loop()
                started = loop.time()

                async def one(user: str) -> int:
                    client = Client(*server.address)
                    try:
                        return (await client.get(url, user=user)).status
                    finally:
                        client.close()

                statuses = await asyncio.gather(one("u1"), one("u2"))
                elapsed = loop.time() - started
                assert statuses == [200, 200]
                assert elapsed < 0.38, f"requests serialized: {elapsed:.2f}s"

        asyncio.run(main())

    def test_graceful_close_rejects_new_connections(self):
        async def main():
            server = make_server()
            await server.start()
            address = server.address
            await server.close()
            with pytest.raises((ConnectionError, OSError)):
                reader, writer = await asyncio.open_connection(*address)
                writer.close()

        asyncio.run(main())


class TestLoadGenerator:
    def _workload(self, requests: int = 80, seed: int = 9):
        return generate_workload(
            [SyntheticSite(make_spec())],
            WorkloadSpec(
                name="live",
                requests=requests,
                users=6,
                duration=30.0,
                revisit_bias=0.7,
                seed=seed,
            ),
        )

    def _verify_render(self):
        twin = OriginServer([SyntheticSite(make_spec())])

        def verify(url: str, user: str, served_at: float) -> bytes:
            request = Request(url=url, cookies={"uid": user}, client_id=user)
            return twin.handle(request, served_at).body

        return verify

    def test_closed_loop_end_to_end(self):
        workload = self._workload()

        async def main():
            async with make_server(spec=make_spec()) as server:
                host, port = server.address
                generator = LoadGenerator(
                    LoadGenConfig(host=host, port=port, mode="closed", concurrency=4),
                    verify_render=self._verify_render(),
                )
                return await generator.run(workload.trace), server.stats

        report, stats = asyncio.run(main())
        assert report.completed == len(workload.trace)
        assert report.errors == 0
        assert report.verify_failures == 0
        assert report.delta_failures == 0
        assert report.deltas > 0, "no deltas exercised"
        assert report.base_fetches > 0
        assert stats.deltas_served == report.deltas
        assert report.rps > 0
        assert report.latencies.count == report.completed

    def test_open_loop_end_to_end(self):
        workload = self._workload(requests=50, seed=4)

        async def main():
            async with make_server(spec=make_spec()) as server:
                host, port = server.address
                generator = LoadGenerator(
                    LoadGenConfig(
                        host=host, port=port, mode="open",
                        concurrency=6, rate=400.0,
                    ),
                    verify_render=self._verify_render(),
                )
                return await generator.run(workload.trace)

        report = asyncio.run(main())
        assert report.completed == 50
        assert report.errors == 0
        assert report.verify_failures == 0
        assert report.peak_in_flight >= 2  # arrivals actually overlapped

    def test_plain_mode_baseline_moves_more_bytes(self):
        workload = self._workload(requests=60, seed=5)

        async def run_mode(mode: str):
            async with make_server(spec=make_spec(), mode=mode) as server:
                host, port = server.address
                generator = LoadGenerator(
                    LoadGenConfig(host=host, port=port, concurrency=4)
                )
                return await generator.run(workload.trace)

        plain = asyncio.run(run_mode("plain"))
        delta = asyncio.run(run_mode("delta"))
        assert plain.verify_failures == delta.verify_failures == 0
        assert plain.deltas == 0 and delta.deltas > 0
        # Delta mode moves fewer document bytes over the wire (Table II live).
        assert delta.document_wire_bytes < plain.document_wire_bytes

    def test_report_render(self):
        workload = self._workload(requests=20, seed=6)

        async def main():
            async with make_server(spec=make_spec()) as server:
                host, port = server.address
                generator = LoadGenerator(
                    LoadGenConfig(host=host, port=port, concurrency=2)
                )
                return await generator.run(workload.trace)

        report = asyncio.run(main())
        text = report.render()
        assert "throughput" in text and "req/s" in text
        assert f"{report.requests} / {report.completed}" in text
