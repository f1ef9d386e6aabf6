"""Tests for engine self-healing: base-file integrity, quarantine, recovery."""

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.codec import checksum
from repro.http.messages import HEADER_ACCEPT_DELTA, Request, base_ref
from repro.http.sync import run_sync
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.resilience.policy import OriginUnavailable
from repro.url.rules import RuleBook


@pytest.fixture()
def stack():
    site = SyntheticSite(SiteSpec(name="www.h.example", products_per_category=4))
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1),
    )
    server = DeltaServer(origin.fetch, config, rulebook)
    return site, origin, server


def req(url: str, user: str, accept: str | None = None) -> Request:
    request = Request(url=url, cookies={"uid": user}, client_id=user)
    if accept:
        request.headers.set(HEADER_ACCEPT_DELTA, accept)
    return request


def warm_up(server, url: str, users=("u1", "u2", "u3")) -> str:
    for user in users:
        server.handle(req(url, user), now=0.0)
    cls = server.class_of(url)
    assert cls is not None and cls.can_serve_deltas
    return base_ref(cls.class_id, cls.version)


def corrupt_base(cls) -> None:
    """Simulate storage bit-rot in the distributable base."""
    body = bytearray(cls.current.body)
    body[len(body) // 2] ^= 0xFF
    cls.current.body = bytes(body)


class TestIntegrity:
    def test_checksum_recorded_on_promotion(self, stack):
        _, _, server = stack
        site = stack[0]
        url = site.url_for(site.all_pages()[0])
        warm_up(server, url)
        cls = server.class_of(url)
        assert cls.servable(cls.version).intact()

    def test_corruption_detected(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        warm_up(server, url)
        cls = server.class_of(url)
        corrupt_base(cls)
        assert not cls.servable(cls.version).intact()

    def test_unknown_version_fails_integrity(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        warm_up(server, url)
        cls = server.class_of(url)
        assert cls.servable(cls.version + 7) is None


class TestQuarantine:
    def test_corrupted_base_quarantines_on_delta_attempt(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(server, url)
        cls = server.class_of(url)
        corrupt_base(cls)
        # A client holding the (now rotten) base asks for a delta.
        response = server.handle(req(url, "u9", accept=ref), now=10.0)
        assert response.status == 200
        assert not response.is_delta  # full document, never a rotten delta
        assert cls.quarantined
        assert server.stats.quarantines == 1
        assert server.stats.integrity_failures == 1
        # The full response must not advertise the released base.
        assert response.headers.get("X-Delta-Base") is None
        assert cls.class_id in server.health_snapshot()["quarantined"]

    def test_corrupted_base_never_distributed(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        warm_up(server, url)
        cls = server.class_of(url)
        base_url = DeltaServer.base_file_url(
            site.spec.name, cls.class_id, cls.version
        )
        # Sanity: intact base serves fine.
        assert server.handle(req(base_url, "u1"), now=1.0).status == 200
        corrupt_base(cls)
        response = server.handle(req(base_url, "u1"), now=2.0)
        assert response.status == 404
        assert response.body == b"base-file quarantined"
        assert cls.quarantined

    def test_encoder_fault_quarantines(self, stack, monkeypatch):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(server, url)
        cls = server.class_of(url)

        def boom(self, index, document, write, *args, **kwargs):
            raise RuntimeError("encoder bug")

        # VdeltaEncoder is a slots dataclass: patch the class, not the
        # instance.  Clear the encode cache so the faulting kernel is
        # actually reached instead of a memoized artifact.
        monkeypatch.setattr(
            type(server._encoder), "encode_stream_with_index", boom
        )
        cls.current.deltas.clear()
        response = server.handle(req(url, "u9", accept=ref), now=10.0)
        assert response.status == 200
        assert not response.is_delta
        assert cls.quarantined
        assert server.stats.encode_failures == 1

    def test_quarantined_class_serves_fulls(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(server, url)
        cls = server.class_of(url)
        corrupt_base(cls)
        server.handle(req(url, "u9", accept=ref), now=10.0)  # trips quarantine
        assert cls.quarantined and not cls.can_serve_deltas


class TestRecovery:
    def test_next_good_fetch_readopts_and_recovers(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(server, url)
        cls = server.class_of(url)
        old_version = cls.version
        corrupt_base(cls)
        server.handle(req(url, "u9", accept=ref), now=10.0)
        assert cls.quarantined
        # The next request re-adopts a fresh base (recovery) ...
        server.handle(req(url, "u10"), now=11.0)
        assert not cls.quarantined
        assert server.stats.quarantine_recoveries == 1
        assert server.health_snapshot()["quarantined"] == []
        # ... and after anonymization completes, deltas work again.
        for user in ("u11", "u12", "u13"):
            server.handle(req(url, user), now=12.0)
        assert cls.can_serve_deltas
        assert cls.version > old_version
        new_ref = base_ref(cls.class_id, cls.version)
        response = server.handle(req(url, "u14", accept=new_ref), now=13.0)
        assert response.is_delta
        assert cls.servable(cls.version).intact()


    def test_health_lists_exactly_the_flagged_classes(self, stack):
        """The health probe reads each class's own ``quarantined`` flag:
        the list follows two classes through quarantine and re-adoption."""
        site, _, server = stack
        pages = site.all_pages()
        urls = [site.url_for(pages[0]), site.url_for(pages[-1])]
        refs = [warm_up(server, url) for url in urls]
        classes = [server.class_of(url) for url in urls]

        def flagged():
            return sorted(c.class_id for c in server.grouper.classes if c.quarantined)

        assert server.health_snapshot()["quarantined"] == flagged() == []
        for now, (url, ref, cls) in enumerate(zip(urls, refs, classes), 10):
            if cls.quarantined:
                continue  # both URLs were grouped into one class
            corrupt_base(cls)
            server.handle(req(url, "u9", accept=ref), now=float(now))
            assert cls.quarantined
            assert server.health_snapshot()["quarantined"] == flagged() != []
        for now, url in enumerate(urls, 20):
            server.handle(req(url, "u10"), now=float(now))
            assert server.health_snapshot()["quarantined"] == flagged()
        assert flagged() == []


class TestDegradation:
    def test_stale_base_served_when_origin_unavailable(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        warm_up(server, url)
        cls = server.class_of(url)
        expected_body = cls.current.body

        async def down(request, now):
            raise OriginUnavailable("circuit open", breaker_state="open")

        response = run_sync(server.serve(req(url, "u9"), 10.0, down))
        assert response.status == 200
        assert response.body == expected_body
        assert response.degraded == "stale-base"
        assert "stale" in response.headers.get("Warning")
        assert server.stats.stale_served == 1

    def test_502_when_no_base_available(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])

        async def down(request, now):
            raise OriginUnavailable("retries exhausted")

        # Never-seen URL: no class, nothing to degrade to.
        response = run_sync(server.serve(req(url, "u1"), 0.0, down))
        assert response.status == 502
        assert response.degraded == "origin-unavailable"
        assert server.stats.origin_unavailable == 1

    def test_quarantined_class_cannot_degrade_to_rotten_base(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(server, url)
        cls = server.class_of(url)
        corrupt_base(cls)
        server.handle(req(url, "u9", accept=ref), now=10.0)  # quarantines

        async def down(request, now):
            raise OriginUnavailable("circuit open")

        response = run_sync(server.serve(req(url, "u10"), 11.0, down))
        assert response.status == 502  # quarantined: no stale base on offer
