"""A store-backed engine after a SIGKILL: every reopen agrees with the live engine.

The engine journals each lifecycle event into its store where the event
happens.  The property drives generated sequences of requests over a few
URL families and content epochs, quarantines, storage-budget releases,
content churn that forces rebases and compactions.  At each reopen step
the engine is abandoned without ``close()`` — a SIGKILL — and a fresh
engine opens on a *copy* of its state directory.  Every class must come
back as the live engine holds it, except for what the store deliberately
does not keep (hits between checkpoints, bases that were not servable),
and the fresh engine keeps serving the rest of the sequence.
"""

import random
import shutil

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.core.storage import StorageManager
from repro.http.messages import Request, Response, base_ref
from repro.store import HIT_JOURNAL_STRIDE, Store

FAMILIES = 3


def family_doc(family: int, epoch: int) -> bytes:
    """One family's page in one content epoch: families share nothing."""
    shell = f"family {family} skeleton {family * 7919} ".encode() * 60
    return b"<html>" + shell + f"<p>epoch {epoch}</p>".encode() * (epoch + 1) + b"</html>"


def churn_doc(family: int, epoch: int) -> bytes:
    """Content that shares nothing with any base: its deltas are all loss."""
    rng = random.Random(f"churn/{family}/{epoch}")
    return bytes(rng.randrange(256) for _ in range(1500))


def url_of(family: int, page: int) -> str:
    return f"www.s.com/fam{family}/page-{page}"


class ScriptedOrigin:
    def __init__(self):
        self.docs: dict[str, bytes] = {}

    async def __call__(self, request: Request, now: float) -> Response:
        return Response(status=200, body=self.docs[request.url])


def open_engine(state_dir, origin) -> DeltaServer:
    # Anonymization off: every adoption promotes (and commits) at once, so
    # delta-accepting requests for churned content force a basic rebase.
    config = DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))
    store = Store.open(state_dir, snapshot_every=3, fsync=False)
    return DeltaServer(origin, config, store=store)


def serve(engine, origin, url, document, now, *, accept=False):
    origin.docs[url] = document
    request = Request(url=url, cookies={"uid": "u1"})
    cls = engine.class_of(url)
    if accept and cls is not None and cls.can_serve_deltas:
        request.headers.set("X-Accept-Delta", base_ref(cls.class_id, cls.version))
    assert engine.handle(request, now=now).status == 200


def assert_reopen_agrees(live: DeltaServer, reopened: DeltaServer) -> None:
    classes = {cls.class_id: cls for cls in live.grouper.classes}
    restored = {cls.class_id: cls for cls in reopened.grouper.classes}
    assert restored.keys() == classes.keys()
    assert reopened.rehydrated_classes == len(classes)
    for class_id, cls in classes.items():
        back = restored[class_id]
        assert (back.server, back.hint, back.members) == (
            cls.server, cls.hint, cls.members
        )
        assert all(reopened.class_of(url) is back for url in cls.members)
        # Popularity is checkpointed once per stride of hits.
        assert back.stats.hits == cls.stats.hits // HIT_JOURNAL_STRIDE * HIT_JOURNAL_STRIDE
        # A version name is never minted twice: the reopened counter starts
        # at or past every ref the live engine published.
        assert back.version >= cls.version
        if cls.can_serve_deltas:
            assert (
                back.version,
                back.current.body,
                back.current.checksum,
                back.match_base.signature,
            ) == (
                cls.version,
                cls.current.body,
                cls.current.checksum,
                cls.match_base.signature,
            )
        else:
            # Released or quarantined: the store dropped the bytes with it.
            assert back.raw is None and back.current is None


FAMILY = st.integers(0, FAMILIES - 1)
REQUEST = st.tuples(
    st.just("request"), FAMILY, st.integers(0, 1), st.integers(0, 2), st.booleans()
)
OPERATIONS = st.one_of(
    REQUEST,
    REQUEST,  # listed twice: most steps are plain traffic
    st.tuples(st.sampled_from(["quarantine", "release", "churn", "burst"]), FAMILY),
    st.tuples(st.sampled_from(["compact", "reopen"])),
)


@example(
    operations=[
        ("request", 0, 0, 0, False),
        ("request", 1, 0, 0, False),
        ("request", 0, 1, 1, True),
        ("burst", 1),
        ("churn", 0),
        ("reopen",),
        ("quarantine", 1),
        ("release", 0),
        ("compact",),
        ("reopen",),
        ("request", 1, 1, 2, True),
    ]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(operations=st.lists(OPERATIONS, min_size=5, max_size=25))
def test_a_sigkilled_engine_reopens_to_the_live_engine(tmp_path_factory, operations):
    tmp_path = tmp_path_factory.mktemp("reopen")
    origin = ScriptedOrigin()
    state_dir = tmp_path / "state-0"
    engine = open_engine(state_dir, origin)
    reopens = 0

    for step, (name, *args) in enumerate([*operations, ("reopen",)]):
        now = float(step)
        cls = engine.class_of(url_of(args[0], 0)) if args else None
        if name == "request":
            family, page, epoch, accept = args
            serve(engine, origin, url_of(family, page), family_doc(family, epoch),
                  now, accept=accept)
        elif name == "quarantine" and cls is not None:
            with cls.lock:
                engine._quarantine(cls, cause="integrity")
        elif name == "release":
            # Stage 2 under a one-byte budget: every class but the protected
            # one gives up its bases, after stage 0 evicted their history.
            StorageManager(1, store=engine.store).enforce(
                engine.grouper.classes, protect=cls
            )
        elif name == "churn":
            url = url_of(args[0], 0)
            rebases = engine.stats.basic_rebases
            serve(engine, origin, url, family_doc(args[0], 0), now)
            # The delta-size ratio is smoothed: a few all-loss deltas in a
            # row push it over the basic-rebase threshold.
            for epoch in range(6):
                serve(engine, origin, url, churn_doc(args[0], epoch), now, accept=True)
                if engine.stats.basic_rebases > rebases:
                    break
            assert engine.stats.basic_rebases > rebases
        elif name == "burst":
            # Enough hits on one class to cross a popularity checkpoint.
            for _ in range(HIT_JOURNAL_STRIDE):
                serve(engine, origin, url_of(args[0], 0), family_doc(args[0], 0), now)
        elif name == "compact":
            engine.store.compact()
        elif name == "reopen":
            reopens += 1
            copy = tmp_path / f"state-{reopens}"
            shutil.copytree(state_dir, copy)
            reopened = open_engine(copy, origin)
            assert_reopen_agrees(engine, reopened)
            # The abandoned engine's files were copied as they were; closing
            # now only releases its descriptors.
            engine.store.close()
            engine, state_dir = reopened, copy
    engine.close()


def quarantine_then_restart(tmp_path, *, compact: bool) -> tuple[tuple, tuple]:
    """The ``(class_id, version)`` a class published before a quarantine and
    a restart, and the one its re-adoption publishes after them."""
    origin = ScriptedOrigin()
    engine = open_engine(tmp_path / "state", origin)
    url = url_of(0, 0)
    serve(engine, origin, url, family_doc(0, 0), 0.0)
    cls = engine.class_of(url)
    before = (cls.class_id, cls.version)
    with cls.lock:
        engine._quarantine(cls, cause="integrity")
    if compact:
        engine.store.compact()
    engine.close()

    restarted = open_engine(tmp_path / "state", origin)
    serve(restarted, origin, url, family_doc(0, 1), 1.0)
    readopted = restarted.class_of(url)
    after = (readopted.class_id, readopted.version)
    restarted.close()
    return before, after


def test_a_released_class_never_reuses_a_base_version_name_after_restart(tmp_path):
    """A base ref names one byte string forever: a quarantine followed by a
    restart must not let re-adoption mint the pre-restart ref for new bytes."""
    before, after = quarantine_then_restart(tmp_path, compact=False)
    assert after != before
    assert after[1] > before[1]


def test_a_compacted_base_less_class_never_reuses_a_base_version_name(tmp_path):
    """The same, with a compaction between the quarantine and the restart:
    the rewritten journal keeps the class's version high-water mark."""
    before, after = quarantine_then_restart(tmp_path, compact=True)
    assert after[0] == before[0] and after[1] > before[1]
