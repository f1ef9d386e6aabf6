"""Tests for the DeltaServer engine (request handling, Fig. 1 flow)."""

import gc

import pytest

from repro.core.config import (
    AnonymizationConfig,
    BaseFileConfig,
    DeltaServerConfig,
    GroupingConfig,
)
from repro.core.delta_server import (
    DeltaServer,
    format_stage_times,
    parse_stage_times,
)
from repro.delta.apply import apply_delta
from repro.delta.compress import decompress
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_STAGE_TIMES,
    Request,
    Response,
    base_ref,
)
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook


@pytest.fixture()
def stack():
    site = SyntheticSite(SiteSpec(name="www.d.example", products_per_category=4))
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


def warm_up(site, server, url: str, users=("u1", "u2", "u3")) -> str:
    """Create the class and drive anonymization to READY; return the ref."""
    for user in users:
        server.handle(req(url, user), now=0.0)
    cls = server.class_of(url)
    assert cls is not None and cls.can_serve_deltas
    return base_ref(cls.class_id, cls.version)


class TestBasicFlow:
    def test_first_request_full_response(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        response = server.handle(req(url, "u1"), now=0.0)
        assert response.status == 200
        assert not response.is_delta
        assert server.stats.full_served == 1

    def test_grouper_sketches_every_class_base(self, stack):
        """The engine's grouper always runs the MinHash/LSH index; the
        literal scan is a reference only tests and benches build."""
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        server.handle(req(url, "u1"), now=0.0)
        cls = server.class_of(url)
        with cls.lock:
            assert server.grouper.refresh_sketch(cls) is not None

    def test_delta_served_to_base_holder(self, stack):
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        response = server.handle(req(url, "u9", accept=ref), now=10.0)
        assert response.is_delta
        assert response.delta_base_ref == ref
        # Reconstruct and compare against a direct origin render.
        cls = server.class_of(url)
        base = cls.distributable_base
        body = apply_delta(decompress(response.body), base)
        direct = origin.handle(req(url, "u9"), now=10.0).body
        assert body == direct

    def test_delta_served_with_comma_space_accept_header(self, stack):
        """Regression: a comma-space Accept-Delta list (``"x/9, <ref>"``)
        left whitespace on the second token, so the engine never matched
        the held base and fell back to a full document."""
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        response = server.handle(
            req(url, "u9", accept=f"bogus/9, {ref}"), now=10.0
        )
        assert response.is_delta
        assert response.delta_base_ref == ref

    def test_delta_much_smaller_than_document(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        response = server.handle(req(url, "u9", accept=ref), now=10.0)
        direct_size = server.stats.direct_bytes / server.stats.requests
        assert response.content_length < 0.2 * direct_size

    def test_full_response_advertises_base(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        response = server.handle(req(url, "u9"), now=10.0)
        assert not response.is_delta
        assert response.base_file_ref == ref

    def test_unknown_accept_ref_gets_full(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        warm_up(site, server, url)
        response = server.handle(req(url, "u9", accept="cls999/7"), now=10.0)
        assert not response.is_delta


class TestBaseFileDistribution:
    def test_base_file_served_cachable(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        class_id, version = ref.split("/")
        base_url = DeltaServer.base_file_url(site.spec.name, class_id, int(version))
        response = server.handle(Request(url=base_url), now=0.0)
        assert response.status == 200
        assert response.cachable
        assert response.base_file_ref == ref

    def test_unknown_class_404(self, stack):
        site, _, server = stack
        base_url = DeltaServer.base_file_url(site.spec.name, "cls404", 1)
        assert server.handle(Request(url=base_url), now=0.0).status == 404

    def test_stale_version_404(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        class_id, _ = ref.split("/")
        base_url = DeltaServer.base_file_url(site.spec.name, class_id, 99)
        assert server.handle(Request(url=base_url), now=0.0).status == 404

    def test_base_file_has_no_private_data(self, stack):
        from repro.origin.private import find_card_numbers

        site, _, server = stack
        # pick a page that renders the account box
        page = next(p for p in site.all_pages() if site.page_has_private_box(p))
        url = site.url_for(page)
        warm_up(site, server, url)
        cls = server.class_of(url)
        assert not find_card_numbers(cls.distributable_base)


class TestMalformedBaseFileUrls:
    """Hostile or broken ``__delta_base__`` URLs must parse to None (and
    then 404 through ``handle``), never raise."""

    @pytest.mark.parametrize(
        "url",
        [
            "www.d.example/__delta_base__",  # no class id, no version
            "www.d.example/__delta_base__/",  # empty class id, no version
            "www.d.example/__delta_base__/cls1",  # missing version
            "www.d.example/__delta_base__/cls1/",  # empty version
            "www.d.example/__delta_base__//3",  # empty class id
            "www.d.example/__delta_base__/cls1/seven",  # non-integer version
            "www.d.example/__delta_base__/cls1/3.5",  # non-integer version
            "www.d.example/__delta_base__/cls1/-3",  # sign is not a digit
            "www.d.example/__delta_base__/cls1/٣",  # non-ASCII digit
            "www.d.example/__delta_base__/cls1/99999999999999999999x",
        ],
    )
    def test_parse_returns_none(self, url):
        assert DeltaServer.parse_base_file_url(url) is None

    @pytest.mark.parametrize(
        "url",
        [
            "www.d.example/__delta_base__/cls1",
            "www.d.example/__delta_base__/cls1/seven",
            "www.d.example/__delta_base__//3",
        ],
    )
    def test_handle_returns_404_not_crash(self, stack, url):
        _, _, server = stack
        assert server.handle(Request(url=url), now=0.0).status == 404

    def test_wellformed_url_still_parses(self):
        parsed = DeltaServer.parse_base_file_url(
            "www.d.example/__delta_base__/cls7/12"
        )
        assert parsed == ("cls7", 12)

    def test_extra_trailing_segments_tolerated(self):
        # Anything after <class>/<version> is ignored, not an error.
        parsed = DeltaServer.parse_base_file_url(
            "www.d.example/__delta_base__/cls7/12/extra"
        )
        assert parsed == ("cls7", 12)


class TestPassthrough:
    def test_non_200_passed_through(self, stack):
        _, _, server = stack
        response = server.handle(req("www.d.example/bogus?id=0", "u1"), now=0.0)
        assert response.status == 404
        assert server.stats.passthrough == 1

    def test_tiny_documents_passed_through(self):
        async def tiny_origin(request, now):
            return Response(status=200, body=b"ok")

        server = DeltaServer(tiny_origin)
        response = server.handle(req("www.t.example/x?id=1", "u1"), now=0.0)
        assert response.body == b"ok"
        assert server.stats.passthrough == 1


class TestAccounting:
    def test_direct_vs_sent_bytes(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        for i in range(5):
            server.handle(req(url, "u9", accept=ref), now=float(i))
        stats = server.stats
        assert stats.direct_bytes > stats.sent_bytes
        assert stats.deltas_served == 5
        assert stats.savings > 0.4

    def test_class_of_unknown_url(self, stack):
        _, _, server = stack
        assert server.class_of("www.d.example/never?id=0") is None


class TestRebaseTransition:
    def test_previous_version_clients_still_get_deltas(self, stack):
        site, origin, server = stack
        url = site.url_for(site.all_pages()[0])
        old_ref = warm_up(site, server, url)
        cls = server.class_of(url)
        # Force a rebase + re-anonymization to version 2.
        doc = origin.handle(req(url, "zz"), now=50.0).body
        cls.adopt_base(doc, owner_user="zz", now=50.0)
        cls.feed(origin.handle(req(url, "v1"), now=51.0).body, "v1")
        cls.feed(origin.handle(req(url, "v2"), now=52.0).body, "v2")
        assert cls.version == 2
        new_ref = base_ref(cls.class_id, 2)
        # A client still holding version 1 gets a delta against it, plus an
        # upgrade advertisement for version 2.
        response = server.handle(req(url, "u9", accept=old_ref), now=60.0)
        assert response.is_delta
        assert response.delta_base_ref == old_ref
        assert response.base_file_ref == new_ref
        body = apply_delta(decompress(response.body), cls.base_for_version(1))
        assert body == origin.handle(req(url, "u9"), now=60.0).body


class TestStageTiming:
    def test_stage_times_header_on_every_response(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        response = server.handle(req(url, "u1"), now=0.0)
        header = response.headers.get(HEADER_STAGE_TIMES)
        assert header is not None
        timings = parse_stage_times(header)
        assert "lock_wait" in timings
        assert "origin_fetch" in timings
        assert all(seconds >= 0.0 for seconds in timings.values())

    def test_delta_path_records_encode_and_compress(self, stack):
        site, _, server = stack
        url = site.url_for(site.all_pages()[0])
        ref = warm_up(site, server, url)
        response = server.handle(req(url, "u9", accept=ref), now=10.0)
        assert response.is_delta
        timings = parse_stage_times(response.headers.get(HEADER_STAGE_TIMES))
        assert "encode" in timings
        assert "compress" in timings
        # The same stages land in the shared metrics registry.
        for stage in ("encode", "compress", "origin_fetch"):
            hist = server.metrics.histogram(
                "engine_stage_seconds", {"stage": stage}
            )
            assert hist is not None and hist.count >= 1

    def test_format_parse_round_trip(self):
        timings = {"origin_fetch": 0.001234, "encode": 0.000056}
        parsed = parse_stage_times(format_stage_times(timings))
        assert parsed == {"origin_fetch": 0.001234, "encode": 0.000056}
        assert parse_stage_times("") == {}
        assert parse_stage_times("garbage;no=equals=x;ok=0.5") == {"ok": 0.5}


class TestCollectorFootprint:
    def test_sampled_admissions_leave_few_tracked_objects(self):
        """50 sampled admissions (16 light estimates each, every document's
        light index memoized) add a bounded number of GC-tracked objects.

        Light indexes used to hold one list per key: this sequence left
        ~300k tracked objects behind and every full collection walked
        them.  Measured at the change: ~15k, mostly the full indexes'
        chains — one per repeated key.
        """
        gc.collect()
        before = len(gc.get_objects())
        site = SyntheticSite(SiteSpec(name="www.d.example", products_per_category=4))
        rulebook = RuleBook()
        rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
        server = DeltaServer(
            OriginServer([site]).fetch,
            DeltaServerConfig(
                anonymization=AnonymizationConfig(
                    enabled=True, documents=2, min_count=1
                ),
                base_file=BaseFileConfig(sample_probability=1.0),
            ),
            rulebook,
        )
        urls = [site.url_for(page) for page in site.all_pages()[:5]]
        for url in urls:
            warm_up(site, server, url)
        deltas = 0
        for visit in range(10):
            for url in urls:
                cls = server.class_of(url)
                ref = base_ref(cls.class_id, cls.version)
                response = server.handle(
                    req(url, f"visitor-{visit}", accept=ref), now=10.0 + visit
                )
                deltas += response.is_delta
        assert deltas == 50  # each one sampled: sample_probability is 1
        gc.collect()
        assert len(gc.get_objects()) - before < 60_000
