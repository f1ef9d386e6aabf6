"""Snapshot-encode-commit: the sharded engine's delta-generation protocol.

The engine snapshots ``(version, BaseIndex)`` under the class lock, runs
the encode and compress outside every lock, and revalidates the version
at commit.  These tests simulate the race window deterministically: a
patched encoder mutates the class mid-encode (exactly what a concurrent
rebase or storage release would do), and the commit must detect it —
retrying against the fresh state or falling back to a full response, but
never serving a delta against a retired base version.
"""

import contextlib
import threading

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.delta.apply import apply_delta
from repro.delta.compress import decompress
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_DELTA,
    HEADER_DELTA_BASE,
    Request,
)
from repro.core.delta_server import COMMIT_RETRIES, DeltaServer
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook

URL = "www.commit.example/page"


def doc(tag: str) -> bytes:
    return (
        b"<body>" + b"<p>shared block</p>" * 60 + f"<i>{tag}</i>".encode() + b"</body>"
    )


def make_engine() -> DeltaServer:
    documents: dict[str, bytes] = {"current": doc("v0")}

    async def fetch(request: Request, now: float):
        from repro.http.messages import Response

        return Response(status=200, body=documents["current"])

    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1),
    )
    engine = DeltaServer(fetch, config)
    engine._bench_documents = documents  # handle for tests to swap renders
    return engine


def req(user: str, accept: str | None = None) -> Request:
    request = Request(url=URL, cookies={"uid": user})
    if accept:
        request.headers.set(HEADER_ACCEPT_DELTA, accept)
    return request


def warm(engine: DeltaServer):
    """Form the class and drive anonymization to a distributable base."""
    for user in ("u0", "u1", "u2"):
        engine.handle(req(user), now=0.0)
    cls = engine.class_of(URL)
    assert cls is not None and cls.can_serve_deltas
    return cls


def promote_new_generation(cls, body: bytes) -> None:
    """What a winning concurrent rebase does: adopt + promote a new base."""
    with cls.lock:
        cls.adopt_base(body, owner_user="rebase", now=100.0)
        cls.feed(doc("feed-a"), "fa")
        cls.feed(doc("feed-b"), "fb")
        assert cls.can_serve_deltas


class _RacingEncoder:
    """Proxy the engine's encoder, firing a mutation mid-encode, once.

    Installed as ``engine._encoder`` *after* warm-up, so it intercepts
    exactly the off-lock encode of the snapshot-encode-commit path (the
    classes keep their own reference to the real encoder).
    """

    def __init__(self, engine: DeltaServer, mutate) -> None:
        self._inner = engine._encoder
        self._mutate = mutate
        self.fired = 0
        engine._encoder = self

    def encode_stream_with_index(self, index, target, write, *args, **kwargs):
        if self.fired == 0:
            self.fired += 1
            self._mutate()
        return self._inner.encode_stream_with_index(
            index, target, write, *args, **kwargs
        )

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestCommitConflict:
    def test_rebase_during_encode_retries_against_previous(self):
        """A rebase mid-encode: the retry serves the client a delta against
        the (still-stored) old version, plus the upgrade advertisement."""
        engine = make_engine()
        cls = warm(engine)
        old_version = cls.version
        old_base = cls.distributable_base
        old_ref = f"{cls.class_id}/{old_version}"

        race = _RacingEncoder(
            engine, lambda: promote_new_generation(cls, doc("rebased"))
        )

        target = doc("v1")
        engine._bench_documents["current"] = target
        response = engine.handle(req("client", accept=old_ref), now=1.0)

        assert race.fired == 1
        assert engine.stats.commit_conflicts == 1
        assert engine.stats.commit_fallbacks == 0
        # The retry re-planned: the old version is now the class's previous
        # generation, still servable, so the client gets its delta...
        assert response.headers.get(HEADER_DELTA) == old_ref
        assert apply_delta(decompress(response.body), old_base) == target
        # ...plus the pointer at the new base so it upgrades.
        assert (
            response.headers.get(HEADER_DELTA_BASE)
            == f"{cls.class_id}/{cls.version}"
        )
        assert cls.version == old_version + 1

    def test_release_during_encode_falls_back_to_full(self):
        """A storage release mid-encode retires every base version: the
        commit must abandon the delta and serve the full document."""
        engine = make_engine()
        cls = warm(engine)
        old_ref = f"{cls.class_id}/{cls.version}"

        def release() -> None:
            with cls.lock:
                cls.release_base()

        race = _RacingEncoder(engine, release)

        target = doc("v1")
        engine._bench_documents["current"] = target
        response = engine.handle(req("client", accept=old_ref), now=1.0)

        assert race.fired == 1
        # Never a delta against a retired version — full document instead,
        # with no base advertisement (the class has nothing to offer).
        assert HEADER_DELTA not in response.headers
        assert response.body == target
        assert HEADER_DELTA_BASE not in response.headers
        assert engine.stats.commit_conflicts == 1
        assert engine.stats.commit_fallbacks == 1

    def test_retries_exhausted_falls_back_to_full(self):
        """A conflict on every one of the 1 + COMMIT_RETRIES attempts
        means a full response."""
        engine = make_engine()
        cls = warm(engine)
        old_ref = f"{cls.class_id}/{cls.version}"

        # A rebase lands after every snapshot — the retry's too, which may
        # be an encode-cache hit and so never reach the encoder.
        encode = engine._encode_delta
        rebases = []

        def racing_encode(*args):
            rebases.append(f"rebased-{len(rebases)}")
            promote_new_generation(cls, doc(rebases[-1]))
            return encode(*args)

        engine._encode_delta = racing_encode

        target = doc("v1")
        engine._bench_documents["current"] = target
        response = engine.handle(req("client", accept=old_ref), now=1.0)

        assert len(rebases) == 1 + COMMIT_RETRIES
        assert HEADER_DELTA not in response.headers
        assert response.body == target
        assert engine.stats.commit_conflicts == 1 + COMMIT_RETRIES
        assert engine.stats.commit_fallbacks == 1
        # The fallback still advertises the (new) current base.
        assert (
            response.headers.get(HEADER_DELTA_BASE)
            == f"{cls.class_id}/{cls.version}"
        )


class TestUrlMap:
    def test_class_of_uses_url_map(self):
        engine = make_engine()
        assert engine.class_of(URL) is None
        cls = warm(engine)
        assert engine.class_of(URL) is cls
        assert engine.grouper.class_for_url(URL) is cls
        assert engine.class_of("www.commit.example/other-page") is None


class TestSerializedParity:
    def test_modes_produce_identical_bytes_single_threaded(self):
        """Same trace, single thread: the engine behind one caller-side lock
        (the paper's single-CPU model) and the engine as it is must emit
        byte-identical responses (delta payloads included)."""
        site = SyntheticSite(SiteSpec(name="www.par.example", products_per_category=3))
        urls = [site.url_for(page) for page in site.all_pages()[:5]]
        rulebook = RuleBook()
        rulebook.add_rule(site.spec.name, site.hint_rule_pattern())

        def run(mode: str):
            origin = OriginServer(
                [SyntheticSite(SiteSpec(name="www.par.example", products_per_category=3))]
            )
            config = DeltaServerConfig(
                anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1),
            )
            engine = DeltaServer(origin.fetch, config, rulebook)
            lock = (
                threading.Lock() if mode == "serialized" else contextlib.nullcontext()
            )
            refs: dict[str, str] = {}
            out = []
            for i in range(60):
                url = urls[i % len(urls)]
                request = Request(url=url, cookies={"uid": f"u{i % 5}"})
                if url in refs:
                    request.headers.set(HEADER_ACCEPT_DELTA, refs[url])
                with lock:
                    response = engine.handle(request, now=float(i))
                ref = response.base_file_ref
                if ref is not None:
                    refs[url] = ref
                out.append(
                    (
                        response.status,
                        response.body,
                        response.headers.get(HEADER_DELTA),
                        response.headers.get(HEADER_DELTA_BASE),
                    )
                )
            return out, engine.stats

        serialized_out, serialized_stats = run("serialized")
        sharded_out, sharded_stats = run("sharded")
        assert serialized_out == sharded_out
        assert serialized_stats.savings == pytest.approx(sharded_stats.savings)
        assert serialized_stats.deltas_served == sharded_stats.deltas_served
