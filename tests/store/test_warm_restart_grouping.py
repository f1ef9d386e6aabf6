"""Grouping state across restarts: popularity counters and sketches.

The restart here is deliberately unclean — the first engine is abandoned
without ``close()``, like a SIGKILL.  Journal appends flush to the OS on
every write (see :meth:`repro.store.journal.Journal.append`), so a fresh
``Store.open`` against the same directory sees exactly what a process
restart after a kill would see.
"""

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.core.sketch import MinHashSketcher
from repro.http.messages import Request, Response
from repro.store import HIT_JOURNAL_STRIDE, Store

SHELL = b"<html>" + b"shared page shell " * 160 + b"</html>"


def family_doc(family: int, tail: bytes = b"") -> bytes:
    """Per-family page: families share nothing, so each gets its own class."""
    return (
        b"<html>"
        + f"family {family} skeleton {family * 7919} ".encode() * 120
        + tail
        + b"</html>"
    )


class ScriptedOrigin:
    def __init__(self):
        self.docs: dict[str, bytes] = {}

    async def __call__(self, request: Request, now: float) -> Response:
        return Response(status=200, body=self.docs[request.url])


def build_engine(tmp_path, origin) -> DeltaServer:
    store = Store.open(tmp_path / "state", snapshot_every=4)
    config = DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))
    return DeltaServer(origin, config, store=store)


def serve(engine, origin, url, doc, now=0.0):
    origin.docs[url] = doc
    response = engine.handle(Request(url=url), now=now)
    assert response.status == 200
    return response


def test_popularity_survives_kill_restart(tmp_path):
    """Regression: hit counts used to restart at zero, silently discarding
    the popular-first probe ordering (heuristic 4)."""
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    hot, cold = "www.s.com/hot/page", "www.s.com/cold/page"
    serve(engine, origin, hot, SHELL + b"<p>hot</p>")
    serve(engine, origin, cold, b"totally unrelated tiny page " * 40)
    hot_requests = 2 * HIT_JOURNAL_STRIDE + 7  # crosses two checkpoints
    for i in range(hot_requests - 1):
        serve(engine, origin, hot, SHELL + b"<p>hot</p>", now=float(i))
    hot_id = engine.class_of(hot).class_id
    cold_id = engine.class_of(cold).class_id
    assert engine.class_of(hot).stats.hits == hot_requests
    # SIGKILL: no close(), no flush of anything beyond what already ran.
    del engine

    restarted = build_engine(tmp_path, origin)
    hot_cls, cold_cls = restarted.class_of(hot), restarted.class_of(cold)
    assert hot_cls.class_id == hot_id and cold_cls.class_id == cold_id
    # The last stride checkpoint survived; at most stride-1 hits are lost.
    assert hot_cls.stats.hits == 2 * HIT_JOURNAL_STRIDE
    assert hot_cls.popularity > cold_cls.popularity
    # And the restored popularity actually orders the probes.
    grouper = restarted.grouper
    order = grouper._probe_order(
        [cold_cls, hot_cls], grouper._shard_rng(("www.s.com", "hot"))
    )
    assert order[0] is hot_cls
    restarted.close()


def test_sketches_survive_kill_restart_byte_identically(tmp_path):
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    urls = [f"www.s.com/cat{i}/page" for i in range(5)]
    for i, url in enumerate(urls):
        serve(engine, origin, url, family_doc(i))
    before = {
        cls.class_id: cls.match_base.signature for cls in engine.grouper.classes
    }
    assert len(before) == 5
    assert all(sig is not None for sig in before.values())
    del engine  # SIGKILL

    restarted = build_engine(tmp_path, origin)
    after = {
        cls.class_id: cls.match_base.signature for cls in restarted.grouper.classes
    }
    assert after == before
    # The signatures came off disk, not from re-sketching the bases.
    for class_id in before:
        state = restarted.store.class_state(class_id)
        assert state.sketch is not None
        assert tuple(state.sketch) == before[class_id]
    restarted.close()


def test_restart_does_not_resketch_persisted_bases(tmp_path, monkeypatch):
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    for i in range(4):
        serve(engine, origin, f"www.s.com/cat{i}/page", family_doc(i))
    del engine  # SIGKILL

    calls = []
    original = MinHashSketcher.signature

    def counting(self, document):
        calls.append(len(document))
        return original(self, document)

    monkeypatch.setattr(MinHashSketcher, "signature", counting)
    restarted = build_engine(tmp_path, origin)
    assert restarted.rehydrated_classes == 4
    assert calls == []  # every signature was restored from the journal
    assert all(
        cls.match_base.signature is not None for cls in restarted.grouper.classes
    )
    restarted.close()


def test_restored_sketch_groups_fresh_hint_urls(tmp_path):
    """Post-restart, a new session-style URL with near-duplicate content
    joins its pre-restart class through the restored LSH index."""
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    url = "www.s.com/catalog/page"
    doc = SHELL + b"<p>catalog body</p>" * 30
    serve(engine, origin, url, doc)
    class_id = engine.class_of(url).class_id
    del engine  # SIGKILL

    restarted = build_engine(tmp_path, origin)
    fresh = "www.s.com/session-7f3a/catalog-page"
    serve(restarted, origin, fresh, doc + b"<p>session tail</p>", now=50.0)
    joined = restarted.class_of(fresh)
    assert joined is not None and joined.class_id == class_id
    assert restarted.grouper.stats.sketch_hits >= 1
    restarted.close()


def test_hits_and_sketch_survive_compaction(tmp_path):
    """The snapshot/compaction path carries popularity and sketches too."""
    origin = ScriptedOrigin()
    engine = build_engine(tmp_path, origin)
    url = "www.s.com/app/page"
    for i in range(HIT_JOURNAL_STRIDE + 2):
        serve(engine, origin, url, SHELL + b"<p>app</p>", now=float(i))
    cls = engine.class_of(url)
    signature = cls.match_base.signature
    store = engine.store
    store.compact()
    engine.close()

    reopened = Store.open(tmp_path / "state")
    state = reopened.class_state(cls.class_id)
    assert state.hits == HIT_JOURNAL_STRIDE
    assert tuple(state.sketch) == signature
    reopened.close()
