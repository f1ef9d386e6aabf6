"""Live-socket tests for the caching proxy tier.

A real :class:`~repro.serve.server.DeltaHTTPServer` upstream with a real
:class:`~repro.proxy.server.ProxyHTTPServer` in front, over loopback TCP.
Verifies the Section VI-B claim end to end: base-files are cached at the
proxy and served byte-identical to every client behind it, while dynamic
documents pass through untouched.
"""

import asyncio
import json
import sys
from pathlib import Path

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.http.messages import HEADER_IF_NONE_MATCH, HEADER_TRACE_ID, Request
from repro.metrics import PROMETHEUS_CONTENT_TYPE
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.proxy import HEADER_PROXY_CACHE, ProxyHTTPServer
from repro.serve import (
    HEADER_BODY_DIGEST,
    LoadGenConfig,
    LoadGenerator,
    METRICS_PATH,
    build_server,
    read_response,
    serialize_request,
)
from repro.serve.server import DeltaHTTPServer, HEALTH_PATH
from repro.workload.generator import WorkloadSpec, generate_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_prometheus_exposition import check as check_exposition  # noqa: E402

SITE = "www.proxied.example"


def make_server(**kwargs) -> DeltaHTTPServer:
    spec = kwargs.pop("spec", None) or SiteSpec(name=SITE, products_per_category=3)
    kwargs.setdefault(
        "config",
        DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
        ),
    )
    return build_server([SyntheticSite(spec)], **kwargs)


async def fetch(host, port, url, user=None, method="GET", headers=None):
    """One request on its own connection; returns the parsed response."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        cookies = {"uid": user} if user else {}
        request = Request(
            url=url, method=method, cookies=cookies, client_id=user or "anonymous"
        )
        for name, value in (headers or {}).items():
            request.headers.set(name, value)
        writer.write(serialize_request(request, keep_alive=False))
        await writer.drain()
        parsed = await asyncio.wait_for(read_response(reader), 10.0)
        return parsed.response
    finally:
        writer.close()


async def warmed_base_url(server: DeltaHTTPServer, proxy: ProxyHTTPServer) -> str:
    """Drive anonymization READY through the proxy; return the base-file URL."""
    site = server.gateway.origin.site(SITE)
    url = site.url_for(site.all_pages()[0])
    ref = None
    for user in ("u1", "u2", "u3"):
        response = await fetch(*proxy.address, url, user=user)
        assert response.status == 200
        ref = response.base_file_ref or ref
    assert ref is not None, "anonymization never became READY"
    return f"{SITE}/__delta_base__/{ref}"


class TestCachingPath:
    def test_miss_then_hit_byte_identical(self):
        async def main():
            async with make_server() as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    base_url = await warmed_base_url(server, proxy)
                    first = await fetch(*proxy.address, base_url)
                    assert first.status == 200
                    assert first.headers.get(HEADER_PROXY_CACHE) == "miss"
                    upstream_before = proxy.stats.upstream_requests
                    second = await fetch(*proxy.address, base_url)
                    assert second.headers.get(HEADER_PROXY_CACHE) == "hit"
                    assert second.body == first.body
                    assert second.headers.get(HEADER_BODY_DIGEST) == first.headers.get(
                        HEADER_BODY_DIGEST
                    )
                    # The hit never touched the upstream.
                    assert proxy.stats.upstream_requests == upstream_before
                    assert proxy.cache.stats.hits == 1

        asyncio.run(main())

    def test_documents_pass_through_uncached(self):
        async def main():
            async with make_server() as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    site = server.gateway.origin.site(SITE)
                    url = site.url_for(site.all_pages()[0])
                    for _ in range(2):
                        response = await fetch(*proxy.address, url, user="u1")
                        assert response.status == 200
                        assert response.headers.get(HEADER_PROXY_CACHE) == "miss"
                    assert len(proxy.cache) == 0  # personalized: never stored

        asyncio.run(main())

    def test_non_get_bypasses_and_is_never_stored(self):
        async def main():
            async with make_server() as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    base_url = await warmed_base_url(server, proxy)
                    # Upstream answers POSTs to the base-file URL with a
                    # cachable 200 — the proxy still must not store it.
                    posted = await fetch(*proxy.address, base_url, method="POST")
                    assert posted.status == 200
                    assert posted.headers.get(HEADER_PROXY_CACHE) == "bypass"
                    assert base_url not in proxy.cache
                    assert proxy.stats.bypassed == 1
                    follow_up = await fetch(*proxy.address, base_url)
                    assert follow_up.headers.get(HEADER_PROXY_CACHE) == "miss"

        asyncio.run(main())

    def test_byte_conservation_on_hits(self):
        async def main():
            async with make_server() as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    base_url = await warmed_base_url(server, proxy)
                    for _ in range(4):
                        response = await fetch(*proxy.address, base_url)
                        assert response.status == 200
                    stats = proxy.stats
                    assert proxy.cache.stats.hits >= 3
                    assert stats.downstream_bytes >= stats.upstream_bytes
                    saved = stats.downstream_bytes - stats.upstream_bytes
                    assert saved == proxy.cache.stats.hit_bytes

        asyncio.run(main())


class TestUpstreamRevalidationSupport:
    def test_serve_answers_304_for_matching_digest(self):
        """The serve stack's side of checksum revalidation."""

        async def main():
            async with make_server() as server:
                site = server.gateway.origin.site(SITE)
                url = site.url_for(site.all_pages()[0])
                ref = None
                for user in ("u1", "u2", "u3"):
                    response = await fetch(*server.address, url, user=user)
                    ref = response.base_file_ref or ref
                assert ref is not None
                base_url = f"{SITE}/__delta_base__/{ref}"
                full = await fetch(*server.address, base_url)
                digest = full.headers.get(HEADER_BODY_DIGEST)
                assert full.status == 200 and digest
                conditional = await fetch(
                    *server.address, base_url, headers={HEADER_IF_NONE_MATCH: digest}
                )
                assert conditional.status == 304
                assert conditional.body == b""
                assert conditional.headers.get(HEADER_BODY_DIGEST) == digest
                mismatched = await fetch(
                    *server.address,
                    base_url,
                    headers={HEADER_IF_NONE_MATCH: "adler32=00000000"},
                )
                assert mismatched.status == 200 and mismatched.body == full.body
                # Documents are personalized (uncachable): never 304.
                doc = await fetch(*server.address, url, user="u1")
                doc_digest = doc.headers.get(HEADER_BODY_DIGEST)
                again = await fetch(
                    *server.address,
                    url,
                    user="u1",
                    headers={HEADER_IF_NONE_MATCH: doc_digest},
                )
                assert again.status == 200

        asyncio.run(main())


class TestObservability:
    def test_metrics_and_health_endpoints(self):
        async def main():
            async with make_server() as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    base_url = await warmed_base_url(server, proxy)
                    await fetch(*proxy.address, base_url)
                    await fetch(*proxy.address, base_url)
                    metrics = await fetch(*proxy.address, f"{SITE}/{METRICS_PATH}")
                    assert metrics.status == 200
                    assert (
                        metrics.headers.get("Content-Type")
                        == PROMETHEUS_CONTENT_TYPE
                    )
                    text = metrics.body.decode()
                    assert check_exposition(text) == []
                    assert "repro_proxy_cache_hits_total 1" in text
                    assert "repro_proxy_requests_total" in text
                    assert "repro_proxy_upstream_wire_bytes_total" in text
                    # Admin probes are not proxied traffic.
                    assert "repro_proxy_admin_requests_total 1" in text
                    health = await fetch(*proxy.address, f"{SITE}/{HEALTH_PATH}")
                    assert health.status == 200
                    payload = json.loads(health.body)
                    assert payload["status"] == "ok"
                    assert payload["cache"]["hits"] == 1
                    assert payload["upstream"]["port"] == server.address[1]

        asyncio.run(main())


class TestTracePropagation:
    def test_every_response_echoes_its_own_request_trace_id(self):
        """Miss, hit and revalidated answers each carry the id of the
        request they answer — a cache hit used to replay the id of the
        request that populated the entry — and the proxy forwards that id
        upstream unchanged, so a miss has one id on both hops."""

        async def main():
            clock = [1000.0]
            async with make_server() as server:
                upstream_saw = []
                engine_handle = server.engine.handle

                def recording(request, now):
                    upstream_saw.append(request.headers.get(HEADER_TRACE_ID))
                    return engine_handle(request, now)

                async with ProxyHTTPServer(
                    *server.address, ttl=10.0, clock=lambda: clock[0]
                ) as proxy:
                    base_url = await warmed_base_url(server, proxy)
                    server.engine.handle = recording

                    async def get(url, trace_id=None, user=None):
                        headers = {HEADER_TRACE_ID: trace_id} if trace_id else None
                        response = await fetch(
                            *proxy.address, url, user=user, headers=headers
                        )
                        assert response.status == 200
                        return (
                            response.headers.get(HEADER_PROXY_CACHE),
                            response.headers.get(HEADER_TRACE_ID),
                        )

                    assert await get(base_url, "client-0") == ("miss", "client-0")
                    assert await get(base_url, "client-1") == ("hit", "client-1")
                    clock[0] += 11.0  # past the TTL
                    assert await get(base_url, "client-2") == (
                        "revalidated", "client-2",
                    )
                    # Only the miss and the revalidation went upstream,
                    # each under its client's id.
                    assert upstream_saw == ["client-0", "client-2"]
                    # No id from the client: the proxy mints one per
                    # request, and the upstream hop carries the same one.
                    state, on_hit = await get(base_url)
                    assert state == "hit" and on_hit
                    assert on_hit not in ("client-0", "client-1", "client-2")
                    site = server.gateway.origin.site(SITE)
                    doc_url = site.url_for(site.all_pages()[0])
                    state, on_miss = await get(doc_url, user="u1")
                    assert state == "miss" and on_miss and on_miss != on_hit
                    assert upstream_saw[2:] == [on_miss]

        asyncio.run(main())


class TestFailureModes:
    def test_unreachable_upstream_is_502(self):
        async def main():
            # Grab a port that is then closed again: connection refused.
            probe = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
            dead_port = probe.sockets[0].getsockname()[1]
            probe.close()
            await probe.wait_closed()
            async with ProxyHTTPServer("127.0.0.1", dead_port) as proxy:
                response = await fetch(*proxy.address, f"{SITE}/whatever")
                assert response.status == 502
                assert proxy.stats.upstream_errors == 1

        asyncio.run(main())


class TestLoadgenThroughProxy:
    def test_two_client_populations_share_cached_base_files(self):
        """The Section VI-B sharing effect, measured over real sockets.

        Each :class:`LoadGenerator` models one client population with its
        own base-file cache.  The first population's base fetches miss and
        fill the proxy; the second population's identical fetches must be
        served from the proxy without new upstream base transfers — and
        every response still verifies byte-for-byte (digest + delta
        checksum + independent origin re-render).
        """

        async def main():
            spec = SiteSpec(name=SITE, products_per_category=3)
            async with make_server(spec=spec) as server:
                async with ProxyHTTPServer(*server.address) as proxy:
                    workload = generate_workload(
                        [SyntheticSite(spec)],
                        WorkloadSpec(
                            name="via-proxy", requests=60, users=4, seed=7
                        ),
                    )
                    twin = OriginServer([SyntheticSite(spec)])

                    def verify(url, user, served_at):
                        return twin.handle(
                            Request(url=url, cookies={"uid": user}, client_id=user),
                            served_at,
                        ).body

                    def config():
                        return LoadGenConfig(
                            host=proxy.address[0],
                            port=proxy.port,
                            concurrency=4,
                            verify=True,
                        )

                    first = await LoadGenerator(
                        config(), verify_render=verify
                    ).run(workload.trace)
                    hits_after_first = proxy.cache.stats.hits
                    second = await LoadGenerator(
                        config(), verify_render=verify
                    ).run(workload.trace)
                    for report in (first, second):
                        assert report.completed == report.requests == 60
                        assert report.verify_failures == 0
                        assert report.errors == 0 and report.delta_failures == 0
                    assert second.base_fetches > 0
                    # Population 2's base fetches were served from cache.
                    assert proxy.cache.stats.hits >= (
                        hits_after_first + second.base_fetches
                    )
                    assert proxy.stats.downstream_bytes >= proxy.stats.upstream_bytes

        asyncio.run(main())
