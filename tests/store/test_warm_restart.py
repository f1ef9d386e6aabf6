"""Warm-restart round trips: engine state rebuilt from the store."""

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.messages import HEADER_DELTA, HEADER_DELTA_BASE, Request, Response, base_ref
from repro.store import Store

BASE = b"<html>" + b"shared page shell " * 120 + b"</html>"


class ScriptedOrigin:
    """Origin whose documents are set per URL (and counted)."""

    def __init__(self):
        self.docs: dict[str, bytes] = {}
        self.fetches = 0

    async def __call__(self, request: Request, now: float) -> Response:
        self.fetches += 1
        return Response(status=200, body=self.docs[request.url])


def engine_config() -> DeltaServerConfig:
    # Anonymization off: adoption promotes immediately, so every request
    # sequence deterministically produces committed base versions.
    return DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))


def build_engine(tmp_path, origin) -> DeltaServer:
    store = Store.open(tmp_path / "state", snapshot_every=4)
    return DeltaServer(origin, engine_config(), store=store)


def serve_corpus(engine, origin, urls):
    for i, url in enumerate(urls):
        origin.docs[url] = BASE + f"<p>item {i}</p>".encode()
        assert engine.handle(Request(url=url), now=float(i)).status == 200


def test_round_trip_byte_identical_bases_and_memberships(tmp_path):
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    urls = [f"www.s.com/app/page-{i}" for i in range(8)]
    serve_corpus(engine, origin, urls)
    before = {
        cls.class_id: (cls.version, cls.current and cls.current.body, sorted(cls.members))
        for cls in engine.grouper.classes
    }
    assert before, "corpus produced no classes"
    engine.close()

    restarted = build_engine(tmp_path, origin)
    assert restarted.rehydrated_classes == len(before)
    after = {
        cls.class_id: (cls.version, cls.current and cls.current.body, sorted(cls.members))
        for cls in restarted.grouper.classes
    }
    assert after == before  # versions, bytes, memberships — all identical
    for url in urls:
        assert restarted.class_of(url) is not None
    health = restarted.health_snapshot()
    assert health["warm_start"] is True
    assert health["rehydrated_classes"] == len(before)
    assert health["store"]["classes"] == len(before)
    restarted.close()


def test_restart_serves_deltas_without_refetching_bases(tmp_path):
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    url = "www.s.com/app/page-0"
    serve_corpus(engine, origin, [url])
    cls = engine.class_of(url)
    ref = base_ref(cls.class_id, cls.version)
    engine.close()

    restarted = build_engine(tmp_path, origin)
    fetches_before = origin.fetches
    # A client that kept its pre-restart base-file gets a delta on its
    # very first post-restart request (one origin render, no base rebuild).
    origin.docs[url] = BASE + b"<p>item 0, updated after restart</p>"
    request = Request(url=url)
    request.headers.set("X-Accept-Delta", ref)
    response = restarted.handle(request, now=100.0)
    assert response.headers.get(HEADER_DELTA) == ref
    assert origin.fetches == fetches_before + 1
    restarted.close()


def test_new_classes_after_restart_get_fresh_ids(tmp_path):
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    serve_corpus(engine, origin, ["www.s.com/app/page-0"])
    old_ids = {cls.class_id for cls in engine.grouper.classes}
    engine.close()

    restarted = build_engine(tmp_path, origin)
    url = "www.other.com/completely/different"
    origin.docs[url] = b"x" * 600
    restarted.handle(Request(url=url), now=50.0)
    new_ids = {cls.class_id for cls in restarted.grouper.classes} - old_ids
    assert new_ids and not (new_ids & old_ids)
    restarted.close()


def test_quarantined_class_restarts_baseless(tmp_path):
    """A quarantine wipes the persisted chain: restart cannot resurrect it."""
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    url = "www.s.com/app/page-0"
    serve_corpus(engine, origin, [url])
    cls = engine.class_of(url)
    with cls.lock:
        engine._quarantine(cls, cause="integrity")
    engine.close()

    restarted = build_engine(tmp_path, origin)
    restored = restarted.class_of(url)
    assert restored is not None  # membership survives …
    assert restored.current is None  # … the suspect bytes do not
    # The class heals exactly like a live quarantine: next fetch re-adopts.
    response = restarted.handle(Request(url=url), now=10.0)
    assert response.status == 200
    assert restored.current is not None
    restarted.close()


def test_version_history_materializes_after_restart(tmp_path):
    """Every committed version — not just the latest — survives restarts."""
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    url = "www.s.com/app/page-0"
    serve_corpus(engine, origin, [url])
    cls = engine.class_of(url)
    # Force rebases to run the version counter up (each commits a version).
    history = {}
    for v in range(2, 6):
        doc = BASE + f"<p>rebased generation {v}</p>".encode()
        with cls.lock:
            cls.adopt_base(doc, owner_user=None, now=float(v))
            engine.store.commit_base(
                cls.class_id, cls.version, doc, cls.current.checksum
            )
        history[cls.version] = doc
    engine.close()

    store = Store.open(tmp_path / "state", snapshot_every=4)
    for version, doc in history.items():
        assert store.materialize(cls.class_id, version) == doc
    store.close()


def test_no_store_is_a_true_noop(tmp_path):
    """Without a store the engine works exactly as before (cold every time)."""
    origin = ScriptedOrigin()
    engine = DeltaServer(origin, engine_config())
    url = "www.s.com/app/page-0"
    origin.docs[url] = BASE + b"<p>plain</p>"
    assert engine.handle(Request(url=url), now=0.0).status == 200
    assert engine.rehydrated_classes == 0
    assert engine.health_snapshot()["store"] is None
    engine.close()  # no-op, must not raise
