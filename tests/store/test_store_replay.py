"""Live index ≡ journal replay, as a property, plus on-disk format stability.

The store's index has one writer (``Index.apply``), run by the live path
on each record it journals and by every replay of the directory.  The
property below drives generated operation sequences and, after every
step, opens a *copy* of the state directory: the replayed index, the
read-only ``store inspect``/``store verify`` views and the materialized
bytes must all agree with the live store.
"""

import copy
import json
import random
import shutil
import zlib
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.store import Store, inspect_state_dir, scan_journal, verify_state_dir
from repro.store.store import Index

BASE = b"<html>" + b"shared product page content " * 120 + b"</html>"
SNAPSHOT_EVERY = 3
GOLDEN = Path(__file__).with_name("golden_journal.json")
#: the same script journaled by the store before release and quarantine
#: records carried the class's version high-water mark
GOLDEN_UNVERSIONED = Path(__file__).with_name("golden_journal_unversioned.json")


def make_doc(class_id: str, version: int, rewrite: bool = False) -> bytes:
    if not rewrite:
        return BASE + f"<p>{class_id} revision {version}</p>".encode() * (version % 3 + 1)
    # Shares nothing with its predecessor: the chain delta loses to the
    # full snapshot and the commit re-roots.
    rng = random.Random(f"{class_id}/{version}")
    return bytes(rng.randrange(256) for _ in range(600))


def make_signature(class_id: str, version: int) -> tuple[int, ...]:
    rng = random.Random(f"sig/{class_id}/{version}")
    return tuple(rng.randrange(2**32) for _ in range(32))


def index_of(store: Store):
    """Everything a reopen must reproduce, detached from the live objects."""
    return (
        copy.deepcopy({state.class_id: state for state in store.classes()}),
        store.live_pack_bytes,
        store.max_chain_length(),
    )


def open_store(state_dir: Path) -> Store:
    return Store.open(state_dir, snapshot_every=SNAPSHOT_EVERY, fsync=False)


CLASS = st.integers(0, 1)
OPERATIONS = st.one_of(
    st.tuples(st.just("add_class"), CLASS),
    st.tuples(st.just("add_member"), CLASS, st.integers(0, 4)),
    # (class, signed, rewrite) — listed twice so chains grow more often
    # than they re-root
    st.tuples(st.just("commit"), CLASS, st.booleans(), st.booleans()),
    st.tuples(st.just("commit"), CLASS, st.booleans(), st.just(False)),
    st.tuples(st.just("record_hits"), CLASS, st.integers(0, 64)),
    st.tuples(st.sampled_from(["evict_history", "release", "quarantine"]), CLASS),
    st.tuples(st.sampled_from(["compact", "reopen"])),
    # bytes cut off the end: mostly the last few records, sometimes everything
    st.tuples(st.just("truncate"), st.sampled_from(["journal", "pack"]),
              st.integers(0, 400) | st.integers(0, 10_000)),
)


@example(  # the drift this property was written against: a re-root lost the sketch
    operations=[
        ("add_class", 0),
        ("commit", 0, False, False),
        ("commit", 0, True, False),
        ("evict_history", 0),
    ]
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(operations=st.lists(OPERATIONS, min_size=10, max_size=30))
def test_reopened_copy_equals_the_live_index_after_every_step(
    tmp_path_factory, operations
):
    tmp_path = tmp_path_factory.mktemp("replay")
    state_dir = tmp_path / "state"
    store = open_store(state_dir)
    committed: dict[tuple[str, int], bytes] = {}
    next_version: dict[str, int] = {}
    # journal record count -> the index after the step that wrote it
    # (this generation only: a compacted journal's prefixes are states
    # the store never was in)
    history = {0: index_of(store)}

    for step, (name, *args) in enumerate(operations):
        class_id = f"cls{args[0] + 1}" if args and isinstance(args[0], int) else None
        if name == "add_class":
            store.add_class(class_id, "www.s.com", f"hint-{class_id}")
        elif name == "add_member":
            store.add_member(class_id, f"www.s.com/{class_id}/{args[1]}")
        elif name == "commit":
            store.add_class(class_id, "www.s.com", f"hint-{class_id}")
            version = next_version[class_id] = next_version.get(class_id, 0) + 1
            document = make_doc(class_id, version, rewrite=args[2])
            signature = make_signature(class_id, version) if args[1] else None
            store.commit_base(class_id, version, document, signature=signature)
            committed[class_id, version] = document
        elif name == "record_hits":
            store.record_hits(class_id, args[1])
        elif name in ("evict_history", "release", "quarantine"):
            getattr(store, name)(class_id)
        elif name == "compact":
            store.compact()
            history = {}
        elif name == "reopen":
            store.close()
            store = open_store(state_dir)
        elif name == "truncate":
            store.close()
            path = next(state_dir.glob(f"{args[0]}-*"))
            with open(path, "r+b") as fh:
                fh.truncate(max(path.stat().st_size - args[1], 0))
            store = open_store(state_dir)
            # A cut on a step boundary is exactly that earlier step's index.
            earlier = history.get(store.stats.journal_records)
            if earlier is not None:
                assert index_of(store) == earlier
            history = {
                count: index for count, index in history.items()
                if count <= store.stats.journal_records
            }
        live = index_of(store)
        history[store.stats.journal_records] = live

        replica = tmp_path / f"copy-{step}"
        shutil.copytree(state_dir, replica)
        # Read-only views first: opening the copy may repair it.
        assert verify_state_dir(replica)
        summary = inspect_state_dir(replica)["classes"]
        assert summary == {
            cid: {
                "server": state.server,
                "hint": state.hint,
                "members": len(state.members),
                "versions": sorted(state.entries),
                "latest": state.latest,
            }
            for cid, state in live[0].items()
        }
        reopened = open_store(replica)
        try:
            assert index_of(reopened) == live
            # Spelled out although the index comparison covers it: a
            # version name outlives the bytes it named, reopens included.
            assert {s.class_id: s.high_version for s in reopened.classes()} == {
                cid: state.high_version for cid, state in live[0].items()
            }
            for cid, state in live[0].items():
                for version in state.entries:
                    assert reopened.materialize(cid, version) == committed[cid, version]
        finally:
            reopened.close()
        shutil.rmtree(replica)
    store.close()


# -- on-disk format stability ----------------------------------------------------


def scripted_sequence(state_dir: Path) -> Store:
    """Every record type once, in the order the golden file was written."""
    store = Store.open(state_dir, snapshot_every=3)
    store.add_class("cls1", "www.s.com", "hint1")
    store.add_member("cls1", "www.s.com/a")
    store.add_member("cls1", "www.s.com/b")
    store.add_class("cls2", "www.t.com", "hint2")
    store.add_member("cls2", "www.t.com/x")
    for v in range(1, 6):
        signature = (4, 5, 6) if v in (2, 5) else None
        store.commit_base("cls1", v, make_doc("cls1", v), signature=signature)
    store.record_hits("cls1", 16)
    store.commit_base("cls2", 1, make_doc("cls2", 1), signature=(7, 8, 9))
    store.commit_base("cls2", 2, make_doc("cls2", 2))
    store.evict_history("cls1")  # v5 is a chain delta: re-rooted first
    store.quarantine("cls2", cause="integrity")
    store.commit_base("cls2", 3, make_doc("cls2", 3))
    store.add_class("cls3", "www.u.com", "hint3")
    store.commit_base("cls3", 1, make_doc("cls3", 1))
    store.release("cls3")
    return store


def decoded_journal(state_dir: Path) -> list[dict]:
    journal = next(state_dir.glob("journal-*.rjl"))
    return [record for _, record in scan_journal(journal)[0]]


def test_journal_format_matches_the_golden_written_before_the_refactor(tmp_path):
    """``golden_journal.json`` was generated by the store as it stood before
    the index got its single writer; the same script must still journal the
    same records, live and through compaction.  The permitted differences,
    all additive: the re-root record of ``evict_history`` carries the
    class's sketch, and the release and quarantine records carry the
    class's version high-water mark (compaction re-emits it for a
    base-less class as a ``base_released`` record)."""
    golden = json.loads(GOLDEN.read_text())
    reroot = golden["journal"][13]
    assert reroot["version"] == 5 and reroot["encoding"] == "full"
    reroot["sketch"] = [4, 5, 6]

    store = scripted_sequence(tmp_path / "state")
    journal = decoded_journal(tmp_path / "state")
    store.compact()
    compacted = decoded_journal(tmp_path / "state")
    assert store.stats.journal_records == len(compacted)
    store.close()

    if zlib.ZLIB_RUNTIME_VERSION != golden["zlib"]:
        # Frame sizes are the compressor build's business, not the format's.
        for record in journal + compacted + golden["journal"] + golden["compacted"]:
            record.pop("offset", None)
            record.pop("length", None)
    assert journal == golden["journal"]
    assert compacted == golden["compacted"]


def test_a_journal_without_version_keys_still_replays():
    """Records written before release and quarantine carried ``version``
    replay unchanged; the missing key reads as 0, so the high-water mark
    is whatever the class's base records named.  The old compacted journal
    kept no base record for the released ``cls3``: its name was lost, the
    defect the key closes."""
    golden = json.loads(GOLDEN_UNVERSIONED.read_text())
    for records, expected in (
        (golden["journal"], {"cls1": 5, "cls2": 3, "cls3": 1}),
        (golden["compacted"], {"cls1": 5, "cls2": 3, "cls3": 0}),
    ):
        index = Index()
        for record in records:
            index.apply(record)
        assert {cid: s.high_version for cid, s in index.classes.items()} == expected
        assert (index.classes["cls2"].latest, index.classes["cls3"].latest) == (3, None)
