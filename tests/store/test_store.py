"""Tests for the Store orchestrator: chains, eviction, compaction, inspect."""

import pytest

from repro.delta import checksum
from repro.store import Store, StoreError, inspect_state_dir

BASE = b"<html>" + b"shared product page content " * 120 + b"</html>"


def doc(v: int) -> bytes:
    return BASE + f"<p>revision {v}</p>".encode() * (v % 3 + 1)


def seeded_store(tmp_path, versions: int = 10, snapshot_every: int = 4) -> Store:
    store = Store.open(tmp_path / "state", snapshot_every=snapshot_every)
    store.add_class("cls1", "www.s.com", "hint")
    store.add_member("cls1", "www.s.com/a")
    store.add_member("cls1", "www.s.com/b")
    for v in range(1, versions + 1):
        store.commit_base("cls1", v, doc(v))
    return store


def test_chain_bound_and_materialization(tmp_path):
    store = seeded_store(tmp_path, versions=10, snapshot_every=4)
    st = store.class_state("cls1")
    chains = {e.version: (e.encoding, e.chain) for e in st.entries.values()}
    # Full snapshot roots every 4th version: 1, 5, 9 are full.
    assert chains[1] == ("full", 1)
    assert chains[5] == ("full", 1)
    assert chains[9] == ("full", 1)
    assert all(chain <= 4 for _, chain in chains.values())
    for v in range(1, 11):
        assert store.materialize("cls1", v) == doc(v)
    store.close()


def test_snapshot_every_one_stores_all_full(tmp_path):
    store = seeded_store(tmp_path, versions=5, snapshot_every=1)
    st = store.class_state("cls1")
    assert all(e.encoding == "full" for e in st.entries.values())
    store.close()


def test_delta_chains_beat_full_snapshots(tmp_path):
    chained = seeded_store(tmp_path / "k8", versions=12, snapshot_every=8)
    fulls = seeded_store(tmp_path / "k1", versions=12, snapshot_every=1)
    assert chained.live_pack_bytes < fulls.live_pack_bytes
    chained.close()
    fulls.close()


def test_warm_reopen_restores_index(tmp_path):
    store = seeded_store(tmp_path)
    store.close()
    store2 = Store.open(tmp_path / "state")
    assert store2.stats.warm_start
    st = store2.class_state("cls1")
    assert st.members == ["www.s.com/a", "www.s.com/b"]
    assert st.latest == 10
    for v in range(1, 11):
        assert store2.materialize("cls1", v) == doc(v)
    store2.close()


def test_commit_after_reopen_continues_chain(tmp_path):
    store = seeded_store(tmp_path, versions=2, snapshot_every=8)
    store.close()
    store2 = Store.open(tmp_path / "state", snapshot_every=8)
    entry = store2.commit_base("cls1", 3, doc(3))
    # The tip cache is cold after reopen; the parent is materialized from
    # disk and the chain continues instead of re-rooting.
    assert entry.encoding == "delta"
    assert entry.parent == 2
    assert store2.materialize("cls1", 3) == doc(3)
    store2.close()


def test_materialize_unknown_raises(tmp_path):
    store = seeded_store(tmp_path, versions=1)
    with pytest.raises(StoreError):
        store.materialize("cls1", 99)
    with pytest.raises(StoreError):
        store.materialize("nope", 1)
    store.close()


def test_checksum_mismatch_refused(tmp_path):
    """A committed record whose bytes don't match its checksum never serves."""
    store = Store.open(tmp_path / "state")
    store.add_class("cls1", "s", "h")
    store.commit_base("cls1", 1, doc(1), doc_checksum=checksum(b"other bytes"))
    with pytest.raises(StoreError):
        store.materialize("cls1", 1)
    store.close()


def test_evict_history_keeps_latest(tmp_path):
    store = seeded_store(tmp_path, versions=10, snapshot_every=4)
    before = store.live_pack_bytes
    freed = store.evict_history("cls1")
    assert freed > 0
    assert store.live_pack_bytes < before
    st = store.class_state("cls1")
    assert set(st.entries) == {10}
    # Latest was a chain delta; eviction re-rooted it as a full record.
    assert st.entries[10].encoding == "full"
    assert store.materialize("cls1", 10) == doc(10)
    assert store.garbage_bytes > 0
    store.close()
    # Eviction is durable.
    store2 = Store.open(tmp_path / "state")
    assert set(store2.class_state("cls1").entries) == {10}
    assert store2.materialize("cls1", 10) == doc(10)
    store2.close()


def test_release_drops_payloads_durably(tmp_path):
    store = seeded_store(tmp_path, versions=4)
    freed = store.release("cls1")
    assert freed > 0
    assert store.class_state("cls1").latest is None
    store.close()
    store2 = Store.open(tmp_path / "state")
    st = store2.class_state("cls1")
    assert st.latest is None and not st.entries
    assert st.members  # the class itself survives a release
    store2.close()


def test_quarantine_drops_payloads(tmp_path):
    store = seeded_store(tmp_path, versions=3)
    store.quarantine("cls1", cause="integrity")
    assert store.class_state("cls1").latest is None
    store.close()
    store2 = Store.open(tmp_path / "state")
    assert store2.class_state("cls1").latest is None
    store2.close()


def test_compact_reclaims_garbage(tmp_path):
    store = seeded_store(tmp_path, versions=10, snapshot_every=4)
    store.evict_history("cls1")
    assert store.garbage_ratio() > 0.5
    pack_before = store.pack_bytes
    freed = store.compact()
    assert freed > 0
    assert store.pack_bytes < pack_before
    assert store.garbage_bytes == 0
    assert store.snapshot()["generation"] == 2
    assert store.materialize("cls1", 10) == doc(10)
    # Commits continue against the new generation …
    store.commit_base("cls1", 11, doc(11))
    assert store.materialize("cls1", 11) == doc(11)
    store.close()
    # … and the swapped CURRENT pointer survives a reopen.
    store2 = Store.open(tmp_path / "state")
    assert store2.snapshot()["generation"] == 2
    assert store2.materialize("cls1", 11) == doc(11)
    assert store2.class_state("cls1").members == ["www.s.com/a", "www.s.com/b"]
    store2.close()


def test_compact_removes_old_generation_files(tmp_path):
    store = seeded_store(tmp_path)
    store.evict_history("cls1")
    store.compact()
    store.close()
    names = sorted(p.name for p in (tmp_path / "state").iterdir())
    assert names == ["CURRENT", "journal-000002.rjl", "pack-000002.rpk"]


def test_stats_snapshot_shape(tmp_path):
    store = seeded_store(tmp_path, versions=6, snapshot_every=4)
    snap = store.snapshot()
    assert snap["classes"] == 1
    assert snap["commits"] == 6
    assert snap["full_records"] + snap["delta_records"] == 6
    assert snap["max_chain_length"] <= 4
    assert snap["pack_bytes"] > snap["live_pack_bytes"] >= 0
    assert snap["journal_records"] == 9  # 1 class + 2 members + 6 bases
    store.close()


def test_inspect_is_read_only_and_reports_tears(tmp_path):
    store = seeded_store(tmp_path, versions=3)
    store.close()
    state_dir = tmp_path / "state"
    journal = next(state_dir.glob("journal-*.rjl"))
    size = journal.stat().st_size
    with open(journal, "r+b") as fh:
        fh.truncate(size - 2)
    dump = inspect_state_dir(state_dir)
    assert dump["generation"] == 1
    assert dump["journal"]["torn_tail_bytes"] > 0
    assert dump["classes"]["cls1"]["members"] == 2
    # inspect must not repair anything.
    assert journal.stat().st_size == size - 2
    # Recovery (opening the store) then truncates the tail for real.
    store2 = Store.open(state_dir)
    assert store2.stats.journal_truncated_bytes > 0
    store2.close()
    assert journal.stat().st_size < size - 2


def test_history_eviction_keeps_the_persisted_sketch(tmp_path):
    """The re-root record carries the sketch: live index == replayed index."""
    store = Store.open(tmp_path / "state", snapshot_every=4)
    store.add_class("cls1", "www.s.com", "hint")
    store.commit_base("cls1", 1, doc(1))
    store.commit_base("cls1", 2, doc(2), signature=(4, 5, 6))
    assert store.class_state("cls1").entries[2].encoding == "delta"
    store.evict_history("cls1")  # v2 is a chain delta: re-rooted as full
    assert store.class_state("cls1").sketch == [4, 5, 6]
    store.close()
    reopened = Store.open(tmp_path / "state")
    assert reopened.class_state("cls1").sketch == [4, 5, 6]
    reopened.close()
