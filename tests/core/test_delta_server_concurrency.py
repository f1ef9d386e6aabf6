"""Regression: one DeltaServer instance hammered from many threads.

The live serve layer (:mod:`repro.serve`) dispatches engine calls onto a
worker pool, so ``DeltaServer.handle`` must tolerate concurrent callers.
The engine is sharded — per-class locks, off-lock origin fetch,
snapshot-encode-commit delta generation, striped counters — so
concurrent requests genuinely overlap; these tests exist to catch any
mutation path that escapes the sharding discipline (class-map races,
base adoption mid-read, stats corruption, deltas against retired base
versions).
"""

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.apply import apply_delta
from repro.delta.compress import decompress
from repro.http.messages import HEADER_ACCEPT_DELTA, Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.resilience.policy import OriginUnavailable
from repro.url.rules import RuleBook

USERS = [f"user{i:02d}" for i in range(16)]


def build_stack():
    site = SyntheticSite(SiteSpec(name="www.c.example", products_per_category=4))
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
    )
    return site, origin, DeltaServer(origin.fetch, config, rulebook)


def req(url: str, user: str, accept: str | None = None) -> Request:
    request = Request(url=url, cookies={"uid": user}, client_id=user)
    if accept:
        request.headers.set(HEADER_ACCEPT_DELTA, accept)
    return request


def test_concurrent_handle_consistent_accounting():
    """N threads x M requests: no exception, exact request accounting."""
    site, _, server = build_stack()
    urls = [site.url_for(page) for page in site.all_pages()[:6]]
    per_thread = 25
    threads = 8
    failures: list[BaseException] = []

    def hammer(worker: int) -> None:
        try:
            for i in range(per_thread):
                url = urls[(worker + i) % len(urls)]
                user = USERS[(worker * 7 + i) % len(USERS)]
                response = server.handle(req(url, user), now=float(i))
                assert response.status == 200
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            failures.append(exc)

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for worker in range(threads):
            pool.submit(hammer, worker)
    assert not failures, failures
    assert server.stats.requests == threads * per_thread
    assert (
        server.stats.deltas_served
        + server.stats.full_served
        + server.stats.passthrough
        == server.stats.requests
    )


def test_concurrent_deltas_reconstruct_correctly():
    """Concurrent base-holders all get deltas that apply cleanly."""
    site, origin, server = build_stack()
    url = site.url_for(site.all_pages()[0])
    for user in USERS[:4]:  # warm anonymization to READY
        server.handle(req(url, user), now=0.0)
    cls = server.class_of(url)
    assert cls is not None and cls.can_serve_deltas
    ref = f"{cls.class_id}/{cls.version}"
    base = cls.current.body
    failures: list[str] = []
    barrier = threading.Barrier(8)

    def fetch(user: str) -> None:
        barrier.wait()
        for i in range(10):
            response = server.handle(req(url, user, accept=ref), now=10.0 + i)
            if not response.is_delta:
                failures.append(f"{user}: expected delta")
                return
            body = apply_delta(decompress(response.body), base)
            expected = origin.handle(req(url, user), now=10.0 + i).body
            if body != expected:
                failures.append(f"{user}: reconstruction mismatch on request {i}")
                return

    with ThreadPoolExecutor(max_workers=8) as pool:
        for user in USERS[:8]:
            pool.submit(fetch, user)
    assert not failures, failures


def test_concurrent_class_formation_single_class():
    """Racing first-requests for the same document must not split the class."""
    site, _, server = build_stack()
    url = site.url_for(site.all_pages()[1])
    barrier = threading.Barrier(8)

    def first(user: str) -> None:
        barrier.wait()
        server.handle(req(url, user), now=0.0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        for user in USERS[:8]:
            pool.submit(first, user)
    cls = server.class_of(url)
    assert cls is not None
    # The URL belongs to exactly one class; racing firsts must not fork it.
    owners = [c for c in server.grouper.classes if url in c.members]
    assert len(owners) == 1


# -- multi-class mixed-traffic stress -----------------------------------------

MIX_SITES = 4
MIX_THREADS = 8
MIX_PER_THREAD = 30
FAIL_HEADER = "X-Fail"


def build_mixed_stack(mode: str):
    sites = [
        SyntheticSite(SiteSpec(name=f"www.mix{i}.example", products_per_category=3))
        for i in range(MIX_SITES)
    ]
    origin = OriginServer(sites)
    rulebook = RuleBook()
    for site in sites:
        rulebook.add_rule(site.spec.name, site.hint_rule_pattern())

    async def fetch(request: Request, now: float):
        # Deterministic outage injection: the trace marks which requests
        # find the origin down, identically in every mode/interleaving.
        if request.headers.get(FAIL_HEADER) == "1":
            raise OriginUnavailable("injected outage")
        return origin.handle(request, now)

    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1),
    )
    server = DeltaServer(fetch, config, rulebook)
    if mode == "serialized":
        # The paper's single-CPU model: one caller-side lock across handle().
        lock, handle = threading.Lock(), server.handle

        def locked(request: Request, now: float):
            with lock:
                return handle(request, now)

        server.handle = locked
    return sites, origin, server


def warm_mixed(server: DeltaServer, sites):
    """Single-threaded warm-up: one delta-ready class per site, plus the
    base bytes a steady-state client would hold for each."""
    refs: dict[str, str] = {}
    bases: dict[str, bytes] = {}
    for site in sites:
        url = site.url_for(site.all_pages()[0])
        for u in range(3):
            server.handle(req(url, f"warm{u}"), now=0.0)
        cls = server.class_of(url)
        assert cls is not None and cls.can_serve_deltas
        ref = f"{cls.class_id}/{cls.version}"
        base_url = server.base_file_url(site.spec.name, cls.class_id, cls.version)
        base_response = server.handle(Request(url=base_url), now=0.0)
        assert base_response.status == 200
        refs[url] = ref
        bases[ref] = base_response.body
    return refs, bases


def mixed_item(i: int, sites, refs: dict[str, str]):
    """Trace item ``i`` — kind plus a fully-built request, pure in ``i``."""
    site = sites[i % MIX_SITES]
    warm_url = site.url_for(site.all_pages()[0])
    now = 1.0 + i * 0.01
    slot = i % 12
    if slot < 7:  # delta traffic: steady-state client holding the base
        return "doc", req(warm_url, f"u{i % 6}", accept=refs[warm_url]), now
    if slot < 10:  # full traffic: clients with no base, other class members
        other = site.url_for(site.all_pages()[1 + slot % 2])
        return "doc", req(other, f"fresh{i % 5}"), now
    if slot == 10:  # base-file distribution traffic
        class_id, version = refs[warm_url].split("/")
        base_url = DeltaServer.base_file_url(site.spec.name, class_id, int(version))
        return "base", Request(url=base_url), now
    request = req(warm_url, f"u{i % 6}", accept=refs[warm_url])  # slot 11
    request.headers.set(FAIL_HEADER, "1")
    return "fail", request, now


def run_mixed_trace(mode: str, concurrent: bool):
    """Warm + replay the mixed trace; returns (stats, observed counts)."""
    sites, origin, server = build_mixed_stack(mode)
    refs, bases = warm_mixed(server, sites)
    total = MIX_THREADS * MIX_PER_THREAD
    counts = {"doc": 0, "base_ok": 0, "fail": 0}
    counts_lock = threading.Lock()
    failures: list[str] = []

    def render_expected(request: Request, now: float) -> bytes:
        clean = Request(url=request.url, cookies=dict(request.cookies))
        return origin.handle(clean, now).body

    def run_item(i: int) -> None:
        kind, request, now = mixed_item(i, sites, refs)
        response = server.handle(request, now)
        if kind == "doc":
            expected = render_expected(request, now)
            if response.is_delta:
                ref = response.delta_base_ref
                # A delta may only reference a base the client advertised
                # (and therefore holds) — never a retired or foreign one.
                if ref not in bases or ref not in request.accepts_delta():
                    failures.append(f"item {i}: delta against unknown ref {ref}")
                    return
                body = apply_delta(decompress(response.body), bases[ref])
            else:
                body = response.body
            if body != expected:
                failures.append(f"item {i}: reconstruction mismatch ({kind})")
                return
            with counts_lock:
                counts["doc"] += 1
        elif kind == "base":
            if response.status == 200:
                with counts_lock:
                    counts["base_ok"] += 1
        else:  # fail
            if response.degraded not in ("stale-base", "origin-unavailable"):
                failures.append(f"item {i}: outage not degraded: {response.status}")
                return
            with counts_lock:
                counts["fail"] += 1

    if concurrent:
        def worker(tid: int) -> None:
            try:
                for i in range(tid, total, MIX_THREADS):
                    run_item(i)
            except BaseException as exc:  # noqa: BLE001 - surfaced via assert
                failures.append(f"worker {tid}: {exc!r}")

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(MIX_THREADS)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
    else:
        for i in range(total):
            run_item(i)

    assert not failures, failures[:5]
    return server.stats, counts


def test_mixed_traffic_stress_invariants():
    """8 threads of mixed delta/full/base-file/degraded traffic over 4+
    classes: exact accounting, correct bytes, savings in line with the
    serialized engine on the same trace."""
    stats, counts = run_mixed_trace("sharded", concurrent=True)
    warm_docs = MIX_SITES * 3

    assert stats.requests == counts["doc"] + warm_docs
    assert (
        stats.deltas_served + stats.full_served + stats.passthrough
        == stats.requests
    )
    # +MIX_SITES: warm-up fetches one base-file per class.
    assert stats.base_files_served == counts["base_ok"] + MIX_SITES
    assert stats.stale_served + stats.origin_unavailable == counts["fail"]
    assert stats.deltas_served > 0 and stats.savings > 0

    reference_stats, reference_counts = run_mixed_trace(
        "serialized", concurrent=False
    )
    assert reference_counts["doc"] == counts["doc"]
    assert reference_stats.requests == stats.requests
    # Interleaving may shift individual policy decisions, but the
    # bandwidth story must not depend on the concurrency model.
    assert abs(stats.savings - reference_stats.savings) <= 0.1
