"""Failure-injection tests: the system must degrade, never corrupt.

A delta scheme's worst failure is serving a wrong document; these tests
attack the seams (stale caches, corrupted payloads, identity churn,
misbehaving middleboxes) and require byte-correct recovery everywhere.
"""

import pytest

from repro.client.browser import DeltaClient
from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.cookies import CookieJar
from repro.http.messages import Request, Response
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook


@pytest.fixture()
def stack():
    site = SyntheticSite(SiteSpec(name="www.fi.example", products_per_category=3))
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
    )
    server = DeltaServer(origin.fetch, config, rulebook)
    return site, origin, server


def direct(origin, url, user, now):
    return origin.handle(Request(url=url, cookies={"uid": user}), now).body


def warm(site, server, url, rounds=2, clients=4):
    browsers = [DeltaClient(server.handle) for _ in range(clients)]
    for r in range(rounds):
        for i, client in enumerate(browsers):
            client.get(url, float(r * 100 + i))
    return browsers


class TestCorruptingMiddlebox:
    def test_flipped_delta_byte_recovers(self, stack):
        """A middlebox flips one byte of every delta payload: the client
        must detect it (checksum) and fall back to a full fetch."""
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        warm(site, server, url)

        def corrupting(request: Request, now: float) -> Response:
            response = server.handle(request, now)
            if response.is_delta and response.body:
                body = bytearray(response.body)
                body[len(body) // 2] ^= 0xFF
                response = Response(
                    status=response.status,
                    body=bytes(body),
                    headers=response.headers,
                )
            return response

        victim = DeltaClient(corrupting)
        for now in (500.0, 600.0):
            body = victim.get(url, now)
            assert body == direct(origin, url, victim.user_id, now)
        assert victim.stats.delta_failures > 0

    def test_truncated_delta_recovers(self, stack):
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        warm(site, server, url)

        def truncating(request: Request, now: float) -> Response:
            response = server.handle(request, now)
            if response.is_delta and len(response.body) > 10:
                response = Response(
                    status=response.status,
                    body=response.body[:10],
                    headers=response.headers,
                )
            return response

        victim = DeltaClient(truncating)
        body = victim.get(url, 700.0)
        assert body == direct(origin, url, victim.user_id, 700.0)


class TestIdentityChurn:
    def test_cleared_cookie_jar_mid_session(self, stack):
        """User clears browser data: new uid, empty caches — still correct."""
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        warm(site, server, url)
        client = DeltaClient(server.handle)
        client.get(url, 800.0)
        old_uid = client.user_id
        client.jar.clear()
        client.protocol.bases.clear()
        client.protocol.refs.clear()
        body = client.get(url, 900.0)
        assert client.user_id != old_uid
        assert body == direct(origin, url, client.user_id, 900.0)

    def test_two_browsers_same_human(self, stack):
        """The paper's Netscape/IE case: two jars, two 'users', both fine."""
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        warm(site, server, url)
        netscape = DeltaClient(server.handle, CookieJar())
        explorer = DeltaClient(server.handle, CookieJar())
        assert netscape.user_id != explorer.user_id
        for client in (netscape, explorer):
            body = client.get(url, 1000.0)
            assert body == direct(origin, url, client.user_id, 1000.0)


class TestStaleCache:
    def test_client_with_ancient_base_ref(self, stack):
        """A client holding a base from a long-gone version gets a full
        response and reconverges."""
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        browsers = warm(site, server, url)
        client = browsers[0]
        ref = client.held_base_refs()[0]
        # Fabricate staleness: rewrite the client's ref to a bogus version.
        base = client.protocol.bases.pop(ref)
        stale_ref = ref.rsplit("/", 1)[0] + "/99"
        client.protocol.bases[stale_ref] = base
        client.protocol.refs[(client.user_id, url)] = stale_ref
        body = client.get(url, 1100.0)
        assert body == direct(origin, url, client.user_id, 1100.0)

    def test_proxy_cache_cleared_mid_run(self, stack):
        from repro.proxy.proxy import ProxyCache

        site, origin, server = stack
        proxy = ProxyCache(server.handle)
        url = site.url_for(site.all_pages()[0])
        clients = [DeltaClient(proxy.handle) for _ in range(3)]
        for i, client in enumerate(clients):
            client.get(url, float(i))
        proxy.cache.clear()
        for i, client in enumerate(clients):
            body = client.get(url, 200.0 + i)
            assert body == direct(origin, url, client.user_id, 200.0 + i)


class TestOriginErrors:
    def test_origin_500s_passed_through(self, stack):
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        warm(site, server, url)

        async def flaky_origin(request: Request, now: float) -> Response:
            return Response(status=500, body=b"internal error")

        flaky_server = DeltaServer(
            flaky_origin,
            DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False)),
        )
        response = flaky_server.handle(
            Request(url=url, cookies={"uid": "u1"}), now=0.0
        )
        assert response.status == 500
        assert flaky_server.stats.passthrough == 1
