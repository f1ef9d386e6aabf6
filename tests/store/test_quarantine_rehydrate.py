"""Quarantine → re-adoption → restart: the healed base is what survives.

Completes the store's quarantine story from
``test_warm_restart.test_quarantined_class_restarts_baseless``: a
quarantine wipes the persisted chain, but once the class heals (the
next fetch re-adopts a fresh base), that *re-adopted* base is committed
back to the store — and a warm restart rehydrates to it, byte for byte,
delta-servable again.
"""

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.messages import HEADER_DELTA, Request, Response, base_ref
from repro.store import Store

BASE = b"<html>" + b"shared page shell " * 120 + b"</html>"
URL = "www.s.com/app/page-0"


class ScriptedOrigin:
    def __init__(self):
        self.docs: dict[str, bytes] = {}

    async def __call__(self, request: Request, now: float) -> Response:
        return Response(status=200, body=self.docs[request.url])


def build_engine(tmp_path) -> tuple[DeltaServer, ScriptedOrigin]:
    origin = ScriptedOrigin()
    store = Store.open(tmp_path / "state", snapshot_every=4)
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=False)
    )
    engine = DeltaServer(origin, config, store=store)
    return engine, origin


def test_quarantined_then_readopted_base_rehydrates(tmp_path):
    engine, origin = build_engine(tmp_path)
    origin.docs[URL] = BASE + b"<p>original</p>"
    assert engine.handle(Request(url=URL), now=0.0).status == 200
    cls = engine.class_of(URL)
    original_base = cls.current.body

    # Quarantine (suspect bytes), then heal: the next fetch re-adopts a
    # *changed* document as the new base.
    with cls.lock:
        engine._quarantine(cls, cause="integrity")
    origin.docs[URL] = BASE + b"<p>re-adopted after quarantine</p>"
    assert engine.handle(Request(url=URL), now=5.0).status == 200
    assert cls.current is not None
    readopted = cls.current.body
    readopted_version = cls.version
    assert readopted != original_base
    assert engine.stats.quarantine_recoveries >= 1
    engine.close()

    # Warm restart: the shard rehydrates to the re-adopted base — not
    # the pre-quarantine bytes, not baseless.
    restarted, origin2 = build_engine(tmp_path)
    origin2.docs[URL] = origin.docs[URL]
    restored = restarted.class_of(URL)
    assert restored is not None
    assert not restored.quarantined
    assert restored.current.body == readopted
    assert restored.version == readopted_version

    # And it is immediately delta-servable: a client holding the
    # re-adopted base gets a delta against it on the first request.
    ref = base_ref(restored.class_id, restored.version)
    origin2.docs[URL] = BASE + b"<p>updated after restart</p>"
    request = Request(url=URL)
    request.headers.set("X-Accept-Delta", ref)
    response = restarted.handle(request, now=10.0)
    assert response.headers.get(HEADER_DELTA) == ref
    restarted.close()


def test_release_without_readoption_stays_baseless(tmp_path):
    """A quarantine with no healing traffic must not resurrect old bytes."""
    engine, origin = build_engine(tmp_path)
    origin.docs[URL] = BASE + b"<p>original</p>"
    engine.handle(Request(url=URL), now=0.0)
    cls = engine.class_of(URL)
    with cls.lock:
        engine._quarantine(cls, cause="integrity")
    engine.close()  # no traffic between quarantine and shutdown

    restarted, _ = build_engine(tmp_path)
    restored = restarted.class_of(URL)
    assert restored is not None
    assert restored.current is None
    restarted.close()
