"""The class-lifecycle journal: an append-only log of engine events.

Every durable fact about the delta-server's class state is a journal
record — class created, membership add, base version committed (with the
pack location of its payload), quarantine, release, history eviction.
Records are JSON objects inside CRC-framed records
(:mod:`repro.store.format`), so the journal is both the write-ahead
authority the commit protocol fsyncs and a self-describing debug surface
(``repro store inspect`` dumps it verbatim).

This module is the record *vocabulary*: the type names and one
constructor per type, the only place a record's field list is spelled
(:func:`entry_of` is :func:`base_record`'s inverse).  What a record
*means* is decided once, in :meth:`repro.store.store.Index.apply`, which
the live path, recovery, compaction and ``store inspect|verify`` all run.

Durability is caller-controlled per append: base commits sync (the
crash-safety contract), membership adds do not (losing one means a URL
re-runs the grouping search after a crash — harmless), and a syncing
append flushes every buffered record written before it, so the on-disk
record order always matches the append order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.store.format import (
    FILE_HEADER,
    ScannedFrame,
    check_header,
    scan_frames,
    write_frame,
    write_header,
)

JOURNAL_MAGIC = b"RJL1"

#: journal record types (the ``"type"`` field of each JSON record)
REC_CLASS = "class_created"
REC_MEMBER = "member_added"
REC_BASE = "base_committed"
REC_QUARANTINE = "class_quarantined"
REC_RELEASE = "base_released"
REC_EVICT = "history_evicted"
#: absolute per-class hit count checkpoint (popularity across restarts);
#: appended at a stride, not per hit, so the journal stays bounded
REC_HITS = "class_hits"


@dataclass(slots=True)
class PackEntry:
    """One durably committed base-file version (its pack location)."""

    version: int
    offset: int
    length: int  # whole-frame bytes on disk
    encoding: str  # "full" | "delta"
    parent: int | None  # predecessor version a delta applies against
    chain: int  # position in its chain (full == 1)
    doc_checksum: int  # adler32 of the uncompressed document
    doc_bytes: int  # uncompressed document size


def class_record(class_id: str, server: str, hint: str) -> dict:
    return {"type": REC_CLASS, "class_id": class_id, "server": server, "hint": hint}


def member_record(class_id: str, url: str) -> dict:
    return {"type": REC_MEMBER, "class_id": class_id, "url": url}


def base_record(
    class_id: str, entry: PackEntry, sketch: "list[int] | tuple[int, ...] | None"
) -> dict:
    """The commit point of one base version; ``sketch`` is the MinHash
    signature of the document, persisted so a warm restart need not
    re-sketch the class."""
    record = {
        "type": REC_BASE,
        "class_id": class_id,
        "version": entry.version,
        "offset": entry.offset,
        "length": entry.length,
        "encoding": entry.encoding,
        "parent": entry.parent,
        "chain": entry.chain,
        "doc_checksum": entry.doc_checksum,
        "doc_bytes": entry.doc_bytes,
    }
    if sketch is not None:
        record["sketch"] = list(sketch)
    return record


def entry_of(record: dict) -> PackEntry:
    """Decode a ``base_committed`` record (inverse of :func:`base_record`).

    Raises ``KeyError``/``TypeError``/``ValueError`` on a malformed one.
    """
    return PackEntry(
        version=int(record["version"]),
        offset=int(record["offset"]),
        length=int(record["length"]),
        encoding=record["encoding"],
        parent=record.get("parent"),
        chain=int(record.get("chain", 1)),
        doc_checksum=int(record["doc_checksum"]),
        doc_bytes=int(record.get("doc_bytes", 0)),
    )


def hits_record(class_id: str, hits: int) -> dict:
    return {"type": REC_HITS, "class_id": class_id, "hits": hits}


def release_record(class_id: str, version: int) -> dict:
    """Drop a class's payloads; ``version`` is the highest base version the
    class ever named, so its name is never minted again (a journal written
    before the key existed reads as 0)."""
    return {"type": REC_RELEASE, "class_id": class_id, "version": version}


def quarantine_record(class_id: str, cause: str, version: int) -> dict:
    """As :func:`release_record`, for a class taken out of delta service."""
    return {
        "type": REC_QUARANTINE,
        "class_id": class_id,
        "cause": cause,
        "version": version,
    }


def evict_record(class_id: str, versions: list[int]) -> dict:
    return {"type": REC_EVICT, "class_id": class_id, "versions": versions}


class Journal:
    """Append side of one journal file (reads go through :func:`scan_journal`)."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._fh = open(self.path, "ab")
        if not exists:
            write_header(self._fh, JOURNAL_MAGIC)
            self.sync()
        self.bytes = self._fh.tell()

    def append(self, record: dict, *, sync: bool) -> None:
        """Append one record; ``sync=True`` makes it (and all before it) durable."""
        payload = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
        self.bytes += write_frame(self._fh, payload)
        if sync:
            self.sync()
        else:
            self._fh.flush()

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()


def scan_journal(path: Path) -> tuple[list[tuple[int, dict]], int, int]:
    """Read the valid record prefix of a journal file.

    Returns ``(records, valid_end, file_size)`` where each record is
    ``(frame_offset, decoded_dict)`` and ``valid_end`` is the offset the
    file should be truncated to if shorter than ``file_size``.  A frame
    that passes its CRC but does not decode as a JSON object still ends
    the valid prefix (conservative: nothing after damage is trusted).
    """
    data = Path(path).read_bytes()
    check_header(data, JOURNAL_MAGIC, str(path))
    frames, valid_end = scan_frames(data, FILE_HEADER.size)
    records: list[tuple[int, dict]] = []
    for frame in frames:
        record = _decode(frame)
        if record is None:
            return records, frame.offset, len(data)
        records.append((frame.offset, record))
    return records, valid_end, len(data)


def _decode(frame: ScannedFrame) -> dict | None:
    try:
        record = json.loads(frame.payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(record, dict) or "type" not in record:
        return None
    return record


def truncate_file(path: Path, end: int) -> None:
    """Chop a store file to ``end`` bytes (recovery's torn-tail repair)."""
    with open(path, "r+b") as fh:
        fh.truncate(end)
        fh.flush()
        os.fsync(fh.fileno())
