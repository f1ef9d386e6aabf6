"""Tests for the client-side browser: caching, reconstruction, fallbacks."""

import pytest

from repro.client.browser import DeltaClient
from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.cookies import CookieJar
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook


@pytest.fixture()
def stack():
    site = SyntheticSite(SiteSpec(name="www.c.example", products_per_category=4))
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


class TestReconstruction:
    def test_every_get_matches_direct_render(self, stack):
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        clients = [DeltaClient(server.handle) for _ in range(4)]
        for round_ in range(4):
            now = round_ * 30.0
            for client in clients:
                body = client.get(url, now)
                assert body == direct(origin, url, client.user_id, now)

    def test_deltas_eventually_used(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        clients = [DeltaClient(server.handle) for _ in range(4)]
        for round_ in range(4):
            for client in clients:
                client.get(url, round_ * 30.0)
        total_deltas = sum(c.stats.deltas_applied for c in clients)
        assert total_deltas > 0
        assert server.stats.deltas_served == total_deltas

    def test_base_cached_once_per_ref(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        client = DeltaClient(server.handle)
        for round_ in range(5):
            client.get(url, round_ * 10.0)
        assert client.stats.base_fetches <= 2  # one per base generation seen

    def test_held_refs_listed(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        # warm the class with other clients first
        for _ in range(3):
            DeltaClient(server.handle).get(url, 0.0)
        client = DeltaClient(server.handle)
        client.get(url, 1.0)
        assert len(client.held_base_refs()) == 1


class TestFallbacks:
    def test_user_identity_is_stable(self, stack):
        _, _, server = stack
        client = DeltaClient(server.handle)
        assert client.user_id == client.user_id

    def test_preseeded_jar(self, stack):
        _, _, server = stack
        client = DeltaClient(server.handle, CookieJar(cookies={"uid": "me"}))
        assert client.user_id == "me"


class TestStats:
    def test_document_bytes_accumulate(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        client = DeltaClient(server.handle)
        client.get(url, 0.0)
        assert client.stats.document_bytes > 0
        assert client.stats.requests == 1
        assert url in client.stats.urls_fetched

    def test_transfer_sizes_recorded(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        client = DeltaClient(server.handle)
        client.get(url, 0.0)
        client.get(url, 10.0)
        assert len(client.stats.transfer_sizes) == 2
