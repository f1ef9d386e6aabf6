"""``repro store verify``: exit codes, the first bad version, no repairs."""

import pytest

from repro.cli import main
from repro.store import Store, StoreError, verify_state_dir
from repro.store.journal import (
    Journal,
    PackEntry,
    base_record,
    class_record,
    evict_record,
)
from repro.store.pack import Pack

BASE = b"<html>" + b"shared product page content " * 120 + b"</html>"


def doc(v: int) -> bytes:
    return BASE + f"<p>revision {v}</p>".encode() * (v % 3 + 1)


def seeded_state_dir(tmp_path):
    store = Store.open(tmp_path / "state", snapshot_every=4)
    store.add_class("cls1", "www.s.com", "hint")
    store.add_class("cls2", "www.s.com", "hint")
    for v in range(1, 6):
        store.commit_base("cls1", v, doc(v))
        store.commit_base("cls2", v, doc(v + 10), signature=tuple(range(32)))
    store.close()
    return tmp_path / "state"


def file_sizes(state_dir):
    return {path.name: path.stat().st_size for path in state_dir.iterdir()}


def test_clean_directory_exits_zero_with_a_one_line_summary(tmp_path, capsys):
    state_dir = seeded_state_dir(tmp_path)
    assert main(["store", "verify", str(state_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1
    assert "2 classes, 10 versions verified" in out


def test_missing_directory_exits_one(tmp_path, capsys):
    assert main(["store", "verify", str(tmp_path / "nope")]) == 1
    assert "no state directory" in capsys.readouterr().err


def test_flipped_pack_byte_names_the_first_bad_version(tmp_path, capsys):
    state_dir = seeded_state_dir(tmp_path)
    store = Store.open(state_dir)
    cls1_v3 = store.class_state("cls1").entries[3]
    store.close()
    pack = next(state_dir.glob("pack-*"))
    raw = bytearray(pack.read_bytes())
    raw[cls1_v3.offset + cls1_v3.length - 1] ^= 0x40
    pack.write_bytes(bytes(raw))
    before = file_sizes(state_dir)

    assert main(["store", "verify", str(state_dir)]) == 1
    assert "cls1 v3" in capsys.readouterr().err
    with pytest.raises(StoreError, match="cls1 v3.*CRC mismatch"):
        verify_state_dir(state_dir)
    # Verification reports; only opening the store repairs.
    assert file_sizes(state_dir) == before
    assert pack.read_bytes() == bytes(raw)


def test_torn_tail_is_not_damage(tmp_path):
    """A crash between the pack append and the journal append leaves an
    orphan frame; recovery cuts it, so verify reports it and passes."""
    state_dir = seeded_state_dir(tmp_path)
    with open(next(state_dir.glob("pack-*")), "ab") as fh:
        fh.write(b"torn half of a frame")
    assert verify_state_dir(state_dir).endswith("pack 20")


def test_chain_without_its_root_frame(tmp_path, capsys):
    """A journal the store itself would never write: v1 (the snapshot v2's
    delta applies against) is evicted out from under it."""
    state_dir = tmp_path / "state"
    state_dir.mkdir()
    (state_dir / "CURRENT").write_text("1\n")
    pack = Pack(state_dir / "pack-000001.rpk")
    journal = Journal(state_dir / "journal-000001.rjl")
    journal.append(class_record("cls1", "www.s.com", "hint"), sync=False)
    for version, encoding, parent in ((1, "full", None), (2, "delta", 1)):
        offset, length = pack.append(b"payload %d" % version, sync=False)
        entry = PackEntry(version, offset, length, encoding, parent, version, 0, 0)
        journal.append(base_record("cls1", entry, None), sync=False)
    journal.append(evict_record("cls1", [1]), sync=False)
    pack.close()
    journal.close()

    assert main(["store", "verify", str(state_dir)]) == 1
    assert "cls1 v2: v1 is not in the store" in capsys.readouterr().err


def test_sketch_of_another_geometry_is_reported(tmp_path):
    store = Store.open(tmp_path / "state")
    store.add_class("cls1", "www.s.com", "hint")
    store.commit_base("cls1", 1, doc(1), signature=(4, 5, 6))
    store.close()
    with pytest.raises(StoreError, match="cls1 v1: sketch has 3 values"):
        verify_state_dir(tmp_path / "state")


def test_engine_written_directory_verifies(tmp_path):
    """The engine's grouper and ``store verify`` read one sketch geometry,
    so every sketch the engine persists passes the length check."""
    from repro.core.config import AnonymizationConfig, DeltaServerConfig
    from repro.core.delta_server import DeltaServer
    from repro.http.messages import Request, Response

    async def fetch(request, now):
        return Response(status=200, body=doc(int(request.url[-1])))

    config = DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))
    engine = DeltaServer(fetch, config, store=Store.open(tmp_path / "state"))
    for n in range(1, 4):
        request = Request(url=f"www.s.com/page-{n}", cookies={"uid": f"u{n}"})
        assert engine.handle(request, now=float(n)).status == 200
    engine.close()

    reopened = Store.open(tmp_path / "state")
    states = list(reopened.classes())
    assert states and all(state.sketch for state in states)
    reopened.close()
    assert "versions verified" in verify_state_dir(tmp_path / "state")
