"""One suite per Fig. 2 role, run against both of its drivers.

The client protocol (:class:`repro.client.protocol.ClientProtocol`), the
proxy policy (:class:`repro.proxy.proxy.ProxyPolicy`) and the delta
engine (:meth:`repro.core.delta_server.DeltaServer.serve`) are each
written once and driven twice — synchronously (the simulation, or the
serve tier's executor threads), and awaited on an event loop.  Every
scenario here runs against both drivers and must read the same, so a
behaviour can never again exist in one tier only.
"""

import asyncio
from contextlib import asynccontextmanager
from dataclasses import dataclass

import pytest

from repro.client.browser import DeltaClient, DocumentUnavailable
from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.cookies import CookieJar
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_IF_NONE_MATCH,
    Request,
    Response,
)
from repro.http.sync import blocking_sleep
from repro.metrics import stats_dict
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.proxy import HEADER_PROXY_CACHE, ProxyCache, ProxyHTTPServer
from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import (
    HEADER_BODY_DIGEST,
    LoadGenConfig,
    LoadGenerator,
    body_digest,
    build_server,
    read_response,
    serialize_request,
)
from repro.serve.aio import ServerShell
from repro.serve.gateway import OriginGateway
from repro.url.rules import RuleBook
from repro.workload.trace import Trace, TraceRecord

SITE = "www.roles.example"
USER = "u1"


def make_site() -> SyntheticSite:
    return SyntheticSite(SiteSpec(name=SITE, products_per_category=3))


def engine_config() -> DeltaServerConfig:
    # No anonymization window: the first response already advertises a
    # distributable base, so each scenario is a handful of requests.
    return DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))


# -- the client role -----------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """What one document fetch looked like from outside the driver."""

    kind: str  # "delta" | "full" | "unavailable"
    base_fetches: int = 0
    delta_failures: int = 0
    #: the document equals an independent origin render
    correct: bool = True


class SyncClientDriver:
    """``DeltaClient`` against ``DeltaServer.handle``, simulated clock."""

    def __init__(self) -> None:
        site = make_site()
        self.origin = OriginServer([site])
        rulebook = RuleBook()
        rulebook.add_rule(SITE, site.hint_rule_pattern())
        self.engine = DeltaServer(self.origin.fetch, engine_config(), rulebook)
        self.client = DeltaClient(self.engine.handle, CookieJar(cookies={"uid": USER}))
        self.protocol = self.client.protocol
        self.url = site.url_for(site.all_pages()[0])
        self._now = 0.0

    async def get(self, url: str) -> Step:
        self._now += 1.0
        stats = self.client.stats
        before = (stats.deltas_applied, stats.base_fetches, stats.delta_failures)
        try:
            document = self.client.get(url, self._now)
        except DocumentUnavailable:
            document = None
        base_fetches = stats.base_fetches - before[1]
        delta_failures = stats.delta_failures - before[2]
        if document is None:
            return Step("unavailable", base_fetches, delta_failures)
        expected = self.origin.handle(
            Request(url=url, cookies={"uid": USER}, client_id=USER), self._now
        ).body
        kind = "delta" if stats.deltas_applied > before[0] else "full"
        return Step(kind, base_fetches, delta_failures, document == expected)


class LiveClientDriver:
    """``LoadGenerator`` against a live ``build_server`` socket."""

    def __init__(self, server) -> None:
        self.engine = server.engine
        site = server.gateway.origin.site(SITE)
        self.url = site.url_for(site.all_pages()[0])
        twin = OriginServer([make_site()])

        def render(url: str, user: str, served_at: float) -> bytes:
            request = Request(url=url, cookies={"uid": user}, client_id=user)
            return twin.handle(request, served_at).body

        self.generator = LoadGenerator(
            LoadGenConfig(port=server.address[1], concurrency=1), verify_render=render
        )
        self.protocol = self.generator.protocol

    async def get(self, url: str) -> Step:
        report = await self.generator.run(Trace("one", [TraceRecord(0.0, USER, url)]))
        assert report.requests == 1 and not report.timeouts
        if not report.completed:
            assert report.errors == 1
            return Step("unavailable", report.base_fetches, report.delta_failures)
        return Step(
            "delta" if report.deltas else "full",
            report.base_fetches,
            report.delta_failures,
            report.verify_failures == 0,
        )


@asynccontextmanager
async def client_driver(kind: str):
    if kind == "sync":
        yield SyncClientDriver()
    else:
        async with build_server([make_site()], config=engine_config()) as server:
            yield LiveClientDriver(server)


def force_rebase(driver) -> None:
    """Give the URL's class a new base generation behind the client's back."""
    cls = driver.engine.grouper.class_for_url(driver.url)
    with cls.lock:
        cls.adopt_base(cls.servable(cls.version).body + b"<!-- rebased -->", None, 0.0)


async def first_visit_then_revisit(driver):
    first = await driver.get(driver.url)
    assert first == Step("full", base_fetches=1)
    assert len(driver.protocol.bases) == 1
    assert await driver.get(driver.url) == Step("delta")


async def dropped_base_is_refetched(driver):
    await driver.get(driver.url)
    driver.protocol.bases.clear()
    # Nothing held, nothing advertised: a full answer, and the base again.
    assert await driver.get(driver.url) == Step("full", base_fetches=1)
    assert await driver.get(driver.url) == Step("delta")


async def corrupt_base_never_yields_a_wrong_document(driver):
    await driver.get(driver.url)
    (ref,) = driver.protocol.bases
    driver.protocol.bases[ref] = b"corrupted garbage"
    # The delta's checksum fails: drop the base, refetch in full, fetch
    # the base again — one failure, a correct document.
    assert await driver.get(driver.url) == Step("full", base_fetches=1, delta_failures=1)
    assert driver.protocol.bases[ref] != b"corrupted garbage"
    assert await driver.get(driver.url) == Step("delta")


async def stale_ref_upgrades_through_the_advertised_base(driver):
    await driver.get(driver.url)
    (old_ref,) = driver.protocol.bases
    force_rebase(driver)
    # Still a delta (against the previous generation), and X-Delta-Base
    # names the new one: adopted and fetched without a full response.
    assert await driver.get(driver.url) == Step("delta", base_fetches=1)
    new_ref = driver.protocol.refs[(USER, driver.url)]
    assert new_ref != old_ref and new_ref in driver.protocol.bases
    assert await driver.get(driver.url) == Step("delta")


async def non_200_is_surfaced_not_returned(driver):
    missing = f"{SITE}/no/such/page"
    assert await driver.get(missing) == Step("unavailable")
    assert not driver.protocol.bases and not driver.protocol.refs


CLIENT_SCENARIOS = [
    first_visit_then_revisit,
    dropped_base_is_refetched,
    corrupt_base_never_yields_a_wrong_document,
    stale_ref_upgrades_through_the_advertised_base,
    non_200_is_surfaced_not_returned,
]


@pytest.mark.parametrize("driver_kind", ["sync", "live"])
@pytest.mark.parametrize("scenario", CLIENT_SCENARIOS, ids=lambda f: f.__name__)
def test_client_role(scenario, driver_kind):
    async def main():
        async with client_driver(driver_kind) as driver:
            await scenario(driver)

    asyncio.run(main())


# -- the engine role -----------------------------------------------------------

#: every fetch waits; the slow page waits longer, so when two fetches are
#: in flight at once the fast one always finishes — and is processed — first
SLOW_PAGE = 2


def engine_rounds(pages: list[str]) -> list[list[tuple[str, str]]]:
    """The request script: rounds of ``(user, url)``; a pair is concurrent."""
    fast, slow = pages[0], pages[SLOW_PAGE]
    return [
        [("u1", fast)],
        [("u2", fast), ("u1", slow)],
        [("u1", DeltaServer.base_file_url(SITE, "cls1", 1))],
        [("u1", fast)],
        [("u3", fast), ("u2", slow)],
        [("u1", slow)],
        [("u2", fast), ("u3", slow)],
        [("u1", f"{SITE}/no/such/page")],
        [("u3", fast)],
    ]


class EngineRun:
    """One scripted origin behind a gateway, an engine, and a client model
    that advertises the base it holds and follows ``X-Delta-Base``."""

    def __init__(self, sleep) -> None:
        site = make_site()
        self.pages = [site.url_for(page) for page in site.all_pages()]
        plan = FaultPlan(
            [
                FaultRule(kind="latency", delay=0.002),
                FaultRule(kind="latency", delay=0.02, match=self.pages[SLOW_PAGE]),
            ]
        )
        self.gateway = OriginGateway(OriginServer([site]), fault_plan=plan, sleep=sleep)
        rulebook = RuleBook()
        rulebook.add_rule(SITE, site.hint_rule_pattern())
        self.engine = DeltaServer(self.gateway.fetch, engine_config(), rulebook)
        self.refs: dict[tuple[str, str], str] = {}
        self.seen: list[tuple] = []

    def request(self, user: str, url: str) -> Request:
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        ref = self.refs.get((user, url))
        if ref is not None:
            request.headers.set(HEADER_ACCEPT_DELTA, ref)
        return request

    def observe(self, user: str, url: str, response: Response) -> None:
        # X-Delta and X-Delta-Base
        refs = (response.delta_base_ref, response.base_file_ref)
        self.seen.append((user, url, response.status, response.body, refs))
        if response.base_file_ref is not None:
            self.refs[(user, url)] = response.base_file_ref

    def result(self) -> tuple[list[tuple], dict]:
        return self.seen, stats_dict(self.engine.stats)


def run_engine_sync() -> tuple[list[tuple], dict]:
    """``engine.handle``: ``run_sync`` over a gateway that blocks to wait."""
    run = EngineRun(blocking_sleep)
    for now, batch in enumerate(engine_rounds(run.pages)):
        requests = [run.request(user, url) for user, url in batch]
        for (user, url), request in zip(batch, requests):
            run.observe(user, url, run.engine.handle(request, float(now)))
    return run.result()


def run_engine_async() -> tuple[list[tuple], dict]:
    """``await engine.serve`` on a loop; a pair of requests is in flight at once."""

    async def main():
        run = EngineRun(asyncio.sleep)
        for now, batch in enumerate(engine_rounds(run.pages)):
            requests = [run.request(user, url) for user, url in batch]
            responses = await asyncio.gather(
                *(run.engine.serve(r, float(now), run.gateway.fetch) for r in requests)
            )
            for (user, url), response in zip(batch, responses):
                run.observe(user, url, response)
        return run.result()

    return asyncio.run(main())


def test_engine_role():
    seen, stats = run_engine_sync()
    # The script exercises what it is meant to: full answers advertising a
    # base, deltas against it, a base-file, and a passthrough.
    assert stats["deltas_served"] >= 3 and stats["full_served"] >= 3
    assert stats["base_files_served"] == 1 and stats["passthrough"] == 1
    # Same statuses, bodies, X-Delta / X-Delta-Base, and ServerStats.
    assert run_engine_async() == (seen, stats)


# -- the proxy role ------------------------------------------------------------

TTL = 10.0


class ScriptedUpstream:
    """An origin whose pages, and whether it marks them cachable, are set
    by the scenario; answers checksum revalidation like the serve tier."""

    def __init__(self) -> None:
        self.pages: dict[str, tuple[bytes, bool]] = {}

    def __call__(self, request: Request, now: float = 0.0) -> Response:
        page = self.pages.get(request.url)
        if page is None:
            return Response(status=404, body=b"not found")
        body, cachable = page
        digest = body_digest(body)
        if cachable and request.headers.get(HEADER_IF_NONE_MATCH) == digest:
            response = Response(status=304)
        else:
            response = Response(status=200, body=body)
        response.headers.set(HEADER_BODY_DIGEST, digest)
        if cachable:
            response.mark_cachable()
        return response


class SyncProxyDriver:
    def __init__(self, upstream: ScriptedUpstream, clock: list[float]) -> None:
        self.proxy = ProxyCache(upstream)
        self.proxy.cache.ttl = TTL
        self._clock = clock

    async def request(self, url: str, method: str = "GET") -> Response:
        return self.proxy.handle(Request(url=url, method=method), self._clock[0])


class LiveProxyDriver:
    def __init__(self, proxy: ProxyHTTPServer) -> None:
        self.proxy = proxy

    async def request(self, url: str, method: str = "GET") -> Response:
        reader, writer = await asyncio.open_connection(*self.proxy.address)
        try:
            writer.write(serialize_request(Request(url=url, method=method), keep_alive=False))
            await writer.drain()
            return (await asyncio.wait_for(read_response(reader), 10.0)).response
        finally:
            writer.close()


@asynccontextmanager
async def proxy_driver(kind: str, upstream: ScriptedUpstream, clock: list[float]):
    if kind == "sync":
        yield SyncProxyDriver(upstream, clock)
        return

    async def handle(request: Request) -> Response:
        return upstream(request)

    async def no_admin():
        return {}

    async with ServerShell(handle, health=no_admin, metrics_lines=no_admin) as origin:
        async with ProxyHTTPServer(
            *origin.address, ttl=TTL, clock=lambda: clock[0]
        ) as proxy:
            yield LiveProxyDriver(proxy)


BASE = f"{SITE}/__delta_base__/c1/1"
DOC = f"{SITE}/doc?id=1"


async def miss_then_hit(get, upstream, clock):
    upstream.pages[BASE] = (b"base-file bytes", True)
    upstream.pages[DOC] = (b"personalized", False)
    for url in (BASE, BASE, DOC, DOC, BASE):
        await get(url)
    return ["miss", "hit", "miss", "miss", "hit"]


async def non_get_bypasses_and_is_never_stored(get, upstream, clock):
    upstream.pages[BASE] = (b"base-file bytes", True)
    await get(BASE, "POST")  # a cachable 200 to a POST is not the resource
    await get(BASE)
    await get(BASE, "POST")
    await get(BASE)
    return ["bypass", "miss", "bypass", "hit"]


async def ttl_expiry_revalidated_by_304(get, upstream, clock):
    upstream.pages[BASE] = (b"base-file bytes", True)
    await get(BASE)
    clock[0] += TTL + 1
    await get(BASE)
    await get(BASE)  # refreshed: a plain hit again
    return ["miss", "revalidated", "hit"]


async def ttl_expiry_changed_body_replaces_entry(get, upstream, clock):
    upstream.pages[BASE] = (b"base-file bytes", True)
    await get(BASE)
    upstream.pages[BASE] = (b"different bytes under the same URL", True)
    await get(BASE)  # still fresh: the old body
    clock[0] += TTL + 1
    await get(BASE)
    await get(BASE)
    return ["miss", "hit", "miss", "hit"]


async def upstream_stops_marking_cachable(get, upstream, clock):
    upstream.pages[BASE] = (b"base-file bytes", True)
    await get(BASE)
    upstream.pages[BASE] = (b"base-file bytes", False)
    clock[0] += TTL + 1
    await get(BASE)  # revalidation answered 200 uncachable: entry dropped
    await get(BASE)
    return ["miss", "miss", "miss"]


PROXY_SCENARIOS = [
    miss_then_hit,
    non_get_bypasses_and_is_never_stored,
    ttl_expiry_revalidated_by_304,
    ttl_expiry_changed_body_replaces_entry,
    upstream_stops_marking_cachable,
]


def run_proxy_scenario(scenario, kind: str):
    """``(expected states, observed (state, status, body) per request, stats)``."""

    async def main():
        upstream, clock, observed = ScriptedUpstream(), [1000.0], []
        async with proxy_driver(kind, upstream, clock) as driver:

            async def get(url: str, method: str = "GET") -> None:
                response = await driver.request(url, method)
                observed.append(
                    (response.headers.get(HEADER_PROXY_CACHE), response.status, response.body)
                )

            expected = await scenario(get, upstream, clock)
            driver.proxy.cache.check_consistency()
            traffic = stats_dict(driver.proxy.stats)
            # The one count only a socket can have.
            traffic.pop("upstream_wire_bytes")
            return expected, observed, traffic, stats_dict(driver.proxy.cache.stats)

    return asyncio.run(main())


@pytest.mark.parametrize("scenario", PROXY_SCENARIOS, ids=lambda f: f.__name__)
def test_proxy_role(scenario):
    expected, *sync = run_proxy_scenario(scenario, "sync")
    _, *live = run_proxy_scenario(scenario, "live")
    assert [state for state, _, _ in sync[0]] == expected
    assert all(status == 200 for _, status, _ in sync[0])
    # Same X-Proxy-Cache sequence, same bodies, same ProxyStats, same CacheStats.
    assert live == sync


def test_revalidation_moves_headers_not_the_body():
    """What the 304 buys, visible only on a real wire."""

    async def main():
        upstream, clock = ScriptedUpstream(), [1000.0]
        upstream.pages[BASE] = (b"b" * 4096, True)
        async with proxy_driver("live", upstream, clock) as driver:
            await driver.request(BASE)
            before = driver.proxy.stats.upstream_wire_bytes
            clock[0] += TTL + 1
            stale = await driver.request(BASE)
            assert stale.headers.get(HEADER_PROXY_CACHE) == "revalidated"
            assert stale.body == b"b" * 4096
            assert 0 < driver.proxy.stats.upstream_wire_bytes - before < 4096

    asyncio.run(main())
