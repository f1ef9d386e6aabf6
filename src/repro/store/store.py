"""The persistent store: pack + journal + recovery + delta chains.

This is ROADMAP item 2 made concrete — the delta-server's whole corpus
(classes, membership, base-file version history) survives restarts on
disk, so RAM no longer bounds it and a restart no longer starts cold.

Data model
----------

A *state directory* holds one live generation of two files plus a
pointer::

    CURRENT            text file: the live generation number
    pack-<gen>.rpk     payload frames (compressed snapshots / deltas)
    journal-<gen>.rjl  class-lifecycle records referencing pack frames

Base-file versions are stored as **version-to-version delta chains with a
bounded length**: a full (zlib) snapshot roots each chain and up to
``snapshot_every - 1`` successive versions are stored as zlib-compressed
vdelta wire bytes against their immediate predecessor — the
version-to-version scheme whose storage/recovery trade-off the DBCN
paper analyses.  Materializing version ``v`` therefore touches at most
``snapshot_every`` frames.  A delta that compresses worse than the full
snapshot is stored full (and re-roots the chain), so the chain encoding
can never lose to full-per-version storage.

Commit protocol (crash-safe)
----------------------------

One committed base version is::

    1. append payload frame to the pack, fsync;
    2. append the ``base_committed`` journal record (pack offset/length,
       encoding, parent, chain position, document checksum), fsync;
    3. update the in-memory index.

The journal record is the commit point.  A crash between (1) and (2)
leaves an orphan pack tail that recovery truncates; a crash mid-append
leaves a torn frame that the CRC framing rejects.  Recovery replays the
journal's valid prefix in order, re-verifying every referenced pack
frame's CRC as it goes, and cuts *both* files at the first damage — the
surviving state is always the exact state some fsync'd commit produced,
so a torn or half-written base-file can never be served.

Space reclamation
-----------------

``evict_history`` moves a cold class's non-latest versions to garbage
(after re-rooting the latest as a full snapshot so it stays
materializable); ``release``/``quarantine`` drop a class's payloads
entirely.  Garbage bytes stay in the pack until ``compact`` rewrites the
live frames into a fresh generation and swaps ``CURRENT`` atomically —
a crash mid-compaction leaves the old generation intact.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.delta import apply_delta, checksum, make_delta
from repro.delta.compress import compress, decompress
from repro.delta.errors import DeltaError
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import counter, gauge, stats_dict
from repro.store.format import FILE_HEADER, StoreFormatError, frame_crc, scan_frames
from repro.store.journal import (
    REC_BASE,
    REC_CLASS,
    REC_EVICT,
    REC_HITS,
    REC_MEMBER,
    REC_QUARANTINE,
    REC_RELEASE,
    Journal,
    scan_journal,
    truncate_file,
)
from repro.store.pack import Pack, PackCorruptionError

CURRENT_FILE = "CURRENT"

#: the default chain bound K: a full snapshot roots every K-th version
DEFAULT_SNAPSHOT_EVERY = 8

FULL = "full"
DELTA = "delta"


class StoreError(Exception):
    """A store invariant failed (unknown class/version, broken chain)."""


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


@dataclass(slots=True)
class ClassState:
    """Recovered/journaled state of one document class."""

    class_id: str
    server: str
    hint: str
    members: list[str] = field(default_factory=list)
    member_set: set[str] = field(default_factory=set)
    entries: dict[int, PackEntry] = field(default_factory=dict)
    latest: int | None = None
    #: last journaled hit-count checkpoint (popularity across restarts)
    hits: int = 0
    #: MinHash signature of the latest committed base, if one was recorded
    sketch: list[int] | None = None

    def add_member(self, url: str) -> bool:
        if url in self.member_set:
            return False
        self.member_set.add(url)
        self.members.append(url)
        return True

    @property
    def live_bytes(self) -> int:
        return sum(entry.length for entry in self.entries.values())


@dataclass(slots=True)
class StoreStats:
    """Store accounting (surfaced via ``/__metrics__`` and ``/__health__``)."""

    commits: int = counter("base-file versions durably committed")
    full_records: int = counter("commits stored as a full snapshot")
    delta_records: int = counter("commits stored as a delta on the chain")
    journal_records: int = counter("records in the live journal")
    history_evictions: int = counter("old base versions dropped from a chain")
    releases: int = counter("classes whose stored base was released")
    compactions: int = counter("garbage rewrites into a new pack generation")
    journal_truncated_bytes: int = gauge("torn journal tail cut by the last recovery")
    pack_truncated_bytes: int = gauge("torn pack tail cut by the last recovery")
    recovery_ms: float = gauge("duration of the last recovery", default=0.0)
    warm_start: bool = gauge("1 when recovery found a class on disk", default=False)
    rehydrated_classes: int = gauge("classes rebuilt into an engine by rehydration")


class Store:
    """Persistent pack/journal store for delta-server state.

    Thread-safe: one internal lock serializes every mutation and read of
    the index; pack/journal file access only happens under it.  Lock
    ordering with the engine: callers may hold a class lock (or the
    storage-manager lock) when calling in — the store never calls back
    out, so no cycle is possible.
    """

    def __init__(
        self,
        state_dir: Path | str,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        metrics: MetricsRegistry | None = None,
        fsync: bool = True,
    ) -> None:
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        self.state_dir = Path(state_dir)
        self.snapshot_every = snapshot_every
        self.metrics = metrics
        self.stats = StoreStats()
        self._fsync = fsync
        self._lock = threading.RLock()
        self._closed = False
        self._classes: dict[str, ClassState] = {}
        self._live_bytes = 0
        #: last committed document per class, kept so the next commit can
        #: delta against it without touching disk (shares the engine's
        #: bytes object — no copy).
        self._tips: dict[str, bytes] = {}
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._generation = self._read_current() or 1
        started = time.perf_counter()
        self._recover()
        self.stats.recovery_ms = (time.perf_counter() - started) * 1000.0
        self.stats.warm_start = bool(self._classes)

    # -- factory ---------------------------------------------------------------

    @classmethod
    def open(
        cls,
        state_dir: Path | str,
        *,
        snapshot_every: int = DEFAULT_SNAPSHOT_EVERY,
        metrics: MetricsRegistry | None = None,
        fsync: bool = True,
    ) -> "Store":
        return cls(
            state_dir, snapshot_every=snapshot_every, metrics=metrics, fsync=fsync
        )

    # -- paths / generation ----------------------------------------------------

    def _pack_path(self, generation: int) -> Path:
        return self.state_dir / f"pack-{generation:06d}.rpk"

    def _journal_path(self, generation: int) -> Path:
        return self.state_dir / f"journal-{generation:06d}.rjl"

    def _read_current(self) -> int | None:
        path = self.state_dir / CURRENT_FILE
        try:
            return int(path.read_text().strip())
        except (FileNotFoundError, ValueError):
            return None

    def _write_current(self, generation: int) -> None:
        path = self.state_dir / CURRENT_FILE
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            fh.write(f"{generation}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._sync_dir()

    def _sync_dir(self) -> None:
        # Durability of the rename itself; best-effort on platforms that
        # refuse O_RDONLY directory fds.
        with contextlib.suppress(OSError):
            fd = os.open(self.state_dir, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)

    # -- recovery ----------------------------------------------------------------

    def _recover(self) -> None:
        journal_path = self._journal_path(self._generation)
        pack_path = self._pack_path(self._generation)
        if not journal_path.exists() and not pack_path.exists():
            # Fresh store: create both files and the CURRENT pointer.
            self._pack = Pack(pack_path)
            self._journal = Journal(journal_path)
            self._write_current(self._generation)
            return

        pack_data = pack_path.read_bytes() if pack_path.exists() else b""
        pack_ok = True
        try:
            from repro.store.format import check_header
            from repro.store.pack import PACK_MAGIC

            check_header(pack_data, PACK_MAGIC, str(pack_path))
        except StoreFormatError:
            pack_ok = False

        records: list[tuple[int, dict]] = []
        journal_end = FILE_HEADER.size
        journal_size = 0
        if journal_path.exists():
            try:
                records, journal_end, journal_size = scan_journal(journal_path)
            except StoreFormatError:
                # The journal header itself is damaged: nothing after it
                # can be trusted.  Start the state over (the pack becomes
                # all-garbage and is truncated below).
                records, journal_end, journal_size = [], 0, journal_path.stat().st_size

        applied = 0
        pack_floor = FILE_HEADER.size if pack_ok else 0
        pack_high = pack_floor
        for offset, record in records:
            outcome = self._apply_record(record, pack_data, pack_ok)
            if outcome is None:
                # First record referencing torn/corrupt pack bytes: the
                # consistent prefix ends *before* this record.
                journal_end = offset
                break
            pack_high = max(pack_high, outcome)
            applied += 1

        # Torn-tail repair: cut the journal after its last good record and
        # the pack after the last frame a surviving record references.
        if journal_size and journal_end < journal_size:
            if journal_end == 0:
                journal_path.unlink()
            else:
                truncate_file(journal_path, journal_end)
            self.stats.journal_truncated_bytes = journal_size - journal_end
        pack_size = len(pack_data)
        if not pack_ok:
            # Unreadable pack header: no payload survived; rewrite fresh.
            if pack_path.exists():
                pack_path.unlink()
            self.stats.pack_truncated_bytes = pack_size
        elif pack_size > pack_high:
            truncate_file(pack_path, pack_high)
            self.stats.pack_truncated_bytes = pack_size - pack_high

        self._pack = Pack(pack_path)
        self._journal = Journal(journal_path)
        self._journal.records = applied
        self.stats.journal_records = applied
        self._live_bytes = sum(st.live_bytes for st in self._classes.values())
        self._write_current(self._generation)

    def _apply_record(
        self, record: dict, pack_data: bytes, pack_ok: bool
    ) -> int | None:
        """Replay one journal record; returns the pack high-water mark it
        implies, or ``None`` when the record references damaged pack bytes
        (ending the consistent prefix)."""
        rtype = record.get("type")
        try:
            if rtype == REC_CLASS:
                class_id = record["class_id"]
                if class_id not in self._classes:
                    self._classes[class_id] = ClassState(
                        class_id=class_id,
                        server=record["server"],
                        hint=record["hint"],
                    )
                return 0
            if rtype == REC_MEMBER:
                st = self._classes.get(record["class_id"])
                if st is not None:
                    st.add_member(record["url"])
                return 0
            if rtype == REC_BASE:
                st = self._classes.get(record["class_id"])
                if st is None:
                    return 0  # class record lost to an earlier repair
                offset, length = int(record["offset"]), int(record["length"])
                if not pack_ok or not _frame_valid(pack_data, offset, length):
                    return None
                entry = PackEntry(
                    version=int(record["version"]),
                    offset=offset,
                    length=length,
                    encoding=record["encoding"],
                    parent=record.get("parent"),
                    chain=int(record.get("chain", 1)),
                    doc_checksum=int(record["doc_checksum"]),
                    doc_bytes=int(record.get("doc_bytes", 0)),
                )
                # A re-rooting commit replaces the entry for an existing
                # version; the replaced frame is garbage.
                st.entries[entry.version] = entry
                if st.latest is None or entry.version >= st.latest:
                    st.latest = entry.version
                    # The sketch always describes the latest base; older
                    # records' sketches are stale the moment a newer
                    # version commits (with or without one of its own).
                    sketch = record.get("sketch")
                    st.sketch = list(sketch) if sketch else None
                return offset + length
            if rtype in (REC_RELEASE, REC_QUARANTINE):
                st = self._classes.get(record["class_id"])
                if st is not None:
                    st.entries.clear()
                    st.latest = None
                    st.sketch = None
                return 0
            if rtype == REC_HITS:
                st = self._classes.get(record["class_id"])
                if st is not None:
                    st.hits = max(st.hits, int(record["hits"]))
                return 0
            if rtype == REC_EVICT:
                st = self._classes.get(record["class_id"])
                if st is not None:
                    for version in record.get("versions", ()):
                        st.entries.pop(int(version), None)
                return 0
        except (KeyError, TypeError, ValueError):
            return None  # malformed record: end of the trusted prefix
        return 0  # unknown record type: forward-compatible skip

    # -- journaled events --------------------------------------------------------

    def add_class(self, class_id: str, server: str, hint: str) -> None:
        with self._lock:
            if class_id in self._classes:
                return
            self._classes[class_id] = ClassState(
                class_id=class_id, server=server, hint=hint
            )
            self._append(
                {
                    "type": REC_CLASS,
                    "class_id": class_id,
                    "server": server,
                    "hint": hint,
                },
                sync=False,
            )

    def add_member(self, class_id: str, url: str) -> None:
        with self._lock:
            st = self._classes.get(class_id)
            if st is None or not st.add_member(url):
                return
            self._append(
                {"type": REC_MEMBER, "class_id": class_id, "url": url},
                sync=False,
            )

    def commit_base(
        self,
        class_id: str,
        version: int,
        document: bytes,
        doc_checksum: int | None = None,
        signature: "tuple[int, ...] | list[int] | None" = None,
    ) -> PackEntry:
        """Durably commit one base-file version (the crash-safe path).

        Encoded as a delta against the class's previous committed version
        while the chain stays under ``snapshot_every``, as a full
        snapshot otherwise (or whenever the delta fails to win).
        ``signature`` is the base's MinHash sketch; persisting it means a
        warm restart re-registers the class in the LSH candidate index
        without re-sketching the materialized document.
        """
        started = time.perf_counter()
        if doc_checksum is None:
            doc_checksum = checksum(document)
        with self._lock:
            st = self._classes.get(class_id)
            if st is None:
                raise StoreError(f"unknown class {class_id!r}")
            body, encoding, parent, chain = self._encode_body(st, document)
            offset, length = self._pack.append(body, sync=self._fsync)
            record = {
                "type": REC_BASE,
                "class_id": class_id,
                "version": version,
                "offset": offset,
                "length": length,
                "encoding": encoding,
                "parent": parent,
                "chain": chain,
                "doc_checksum": doc_checksum,
                "doc_bytes": len(document),
            }
            if signature is not None:
                record["sketch"] = list(signature)
            self._append(record, sync=self._fsync)
            replaced = st.entries.get(version)
            if replaced is not None:
                self._live_bytes -= replaced.length
            entry = PackEntry(
                version=version,
                offset=offset,
                length=length,
                encoding=encoding,
                parent=parent,
                chain=chain,
                doc_checksum=doc_checksum,
                doc_bytes=len(document),
            )
            st.entries[version] = entry
            if st.latest is None or version >= st.latest:
                st.latest = version
                st.sketch = list(signature) if signature is not None else None
            self._live_bytes += length
            self._tips[class_id] = document
            self.stats.commits += 1
            if encoding == FULL:
                self.stats.full_records += 1
            else:
                self.stats.delta_records += 1
        if self.metrics is not None:
            self.metrics.observe(
                "store_chain_length",
                chain,
                help="delta-chain position of committed base versions (full=1)",
            )
            self.metrics.observe(
                "store_commit_seconds",
                time.perf_counter() - started,
                help="durable base-version commit latency (pack+journal fsync)",
            )
        return entry

    def _encode_body(
        self, st: ClassState, document: bytes
    ) -> tuple[bytes, str, int | None, int]:
        """Pick chain-delta vs full-snapshot encoding for one commit."""
        full_body = compress(document)
        parent_version = st.latest
        if parent_version is None:
            return full_body, FULL, None, 1
        parent_entry = st.entries.get(parent_version)
        if parent_entry is None or parent_entry.chain >= self.snapshot_every:
            return full_body, FULL, None, 1
        parent_doc = self._tips.get(st.class_id)
        if parent_doc is None or checksum(parent_doc) != parent_entry.doc_checksum:
            try:
                parent_doc = self._materialize_locked(st, parent_version)
            except (StoreError, PackCorruptionError, DeltaError):
                return full_body, FULL, None, 1
        delta_body = compress(make_delta(parent_doc, document))
        if len(delta_body) >= len(full_body):
            return full_body, FULL, None, 1
        return delta_body, DELTA, parent_version, parent_entry.chain + 1

    def quarantine(self, class_id: str, cause: str = "") -> int:
        """Journal a quarantine event; the class's payloads become garbage
        (the engine just released its in-memory bases; a fresh chain roots
        on the next good fetch).  Returns live bytes turned to garbage."""
        with self._lock:
            freed = self._drop_payloads(class_id)
            if class_id in self._classes:
                self._append(
                    {
                        "type": REC_QUARANTINE,
                        "class_id": class_id,
                        "cause": cause,
                    },
                    sync=self._fsync,
                )
            return freed

    def release(self, class_id: str) -> int:
        """Journal a storage-pressure base release; payloads become garbage."""
        with self._lock:
            freed = self._drop_payloads(class_id)
            if class_id in self._classes:
                self._append(
                    {"type": REC_RELEASE, "class_id": class_id}, sync=self._fsync
                )
                self.stats.releases += 1
            return freed

    def record_hits(self, class_id: str, hits: int) -> None:
        """Checkpoint a class's absolute hit count (popularity).

        Buffered, not fsync'd: losing the tail after a crash costs a few
        hits of probe-ordering accuracy, nothing more.  Callers throttle
        (see :class:`~repro.store.hooks.PersistentStoreHooks`) so the
        journal grows by one small record per stride of hits, not per
        request.  Monotone: a stale checkpoint never lowers the count.
        """
        with self._lock:
            st = self._classes.get(class_id)
            if st is None or hits <= st.hits:
                return
            st.hits = hits
            self._append(
                {"type": REC_HITS, "class_id": class_id, "hits": hits},
                sync=False,
            )

    def _drop_payloads(self, class_id: str) -> int:
        st = self._classes.get(class_id)
        if st is None:
            return 0
        freed = st.live_bytes
        st.entries.clear()
        st.latest = None
        st.sketch = None
        self._live_bytes -= freed
        self._tips.pop(class_id, None)
        return freed

    def evict_history(self, class_id: str) -> int:
        """Turn a class's non-latest versions into garbage (cold-history
        eviction).  The latest version is re-rooted as a full snapshot
        first when it is a chain delta, so it stays materializable.
        Returns live bytes turned to garbage."""
        with self._lock:
            st = self._classes.get(class_id)
            if st is None or st.latest is None:
                return 0
            if len(st.entries) <= 1:
                return 0
            latest = st.entries[st.latest]
            if latest.encoding != FULL:
                try:
                    document = self._materialize_locked(st, st.latest)
                except (StoreError, PackCorruptionError, DeltaError):
                    # The chain is damaged on disk; nothing behind the
                    # engine's in-memory copy is salvageable — release.
                    return self.release(class_id)
                body = compress(document)
                offset, length = self._pack.append(body, sync=self._fsync)
                self._append(
                    {
                        "type": REC_BASE,
                        "class_id": class_id,
                        "version": st.latest,
                        "offset": offset,
                        "length": length,
                        "encoding": FULL,
                        "parent": None,
                        "chain": 1,
                        "doc_checksum": latest.doc_checksum,
                        "doc_bytes": latest.doc_bytes,
                    },
                    sync=self._fsync,
                )
                self._live_bytes += length - latest.length
                st.entries[st.latest] = PackEntry(
                    version=st.latest,
                    offset=offset,
                    length=length,
                    encoding=FULL,
                    parent=None,
                    chain=1,
                    doc_checksum=latest.doc_checksum,
                    doc_bytes=latest.doc_bytes,
                )
                self._tips[class_id] = document
            evicted = sorted(v for v in st.entries if v != st.latest)
            freed = 0
            for version in evicted:
                freed += st.entries.pop(version).length
            self._live_bytes -= freed
            self._append(
                {"type": REC_EVICT, "class_id": class_id, "versions": evicted},
                sync=self._fsync,
            )
            self.stats.history_evictions += 1
            return freed

    def _append(self, record: dict, *, sync: bool) -> None:
        self._journal.append(record, sync=sync and self._fsync)
        self.stats.journal_records += 1

    # -- reads -------------------------------------------------------------------

    def classes(self) -> list[ClassState]:
        with self._lock:
            return list(self._classes.values())

    def class_state(self, class_id: str) -> ClassState | None:
        with self._lock:
            return self._classes.get(class_id)

    def materialize(self, class_id: str, version: int) -> bytes:
        """Reconstruct one committed base-file version, checksum-verified."""
        with self._lock:
            st = self._classes.get(class_id)
            if st is None:
                raise StoreError(f"unknown class {class_id!r}")
            return self._materialize_locked(st, version)

    def _materialize_locked(self, st: ClassState, version: int) -> bytes:
        chain: list[PackEntry] = []
        v: int | None = version
        while True:
            if v is None:
                raise StoreError(
                    f"{st.class_id} v{version}: chain has no full-snapshot root"
                )
            entry = st.entries.get(v)
            if entry is None:
                raise StoreError(f"{st.class_id} v{v}: not in the store")
            chain.append(entry)
            if entry.encoding == FULL:
                break
            if len(chain) > self.snapshot_every + 1:
                raise StoreError(f"{st.class_id} v{version}: chain exceeds bound")
            v = entry.parent
        try:
            document = decompress(self._pack.read(chain[-1].offset, chain[-1].length))
            for entry in reversed(chain[:-1]):
                delta = decompress(self._pack.read(entry.offset, entry.length))
                document = apply_delta(delta, document)
        except (DeltaError, OSError, ValueError) as exc:
            raise StoreError(f"{st.class_id} v{version}: {exc}") from exc
        target = st.entries[version]
        if checksum(document) != target.doc_checksum:
            raise StoreError(
                f"{st.class_id} v{version}: materialized bytes fail their checksum"
            )
        return document

    # -- accounting ----------------------------------------------------------------

    @property
    def pack_bytes(self) -> int:
        with self._lock:
            return self._pack.end

    @property
    def live_pack_bytes(self) -> int:
        with self._lock:
            return self._live_bytes

    @property
    def garbage_bytes(self) -> int:
        with self._lock:
            return max(self._pack.end - FILE_HEADER.size - self._live_bytes, 0)

    def garbage_ratio(self) -> float:
        with self._lock:
            payload = self._pack.end - FILE_HEADER.size
            if payload <= 0:
                return 0.0
            return max(payload - self._live_bytes, 0) / payload

    def class_disk_bytes(self, class_id: str) -> int:
        """Live on-disk chain bytes one class pins (its history cost)."""
        with self._lock:
            st = self._classes.get(class_id)
            return st.live_bytes if st is not None else 0

    def max_chain_length(self) -> int:
        with self._lock:
            return max(
                (
                    entry.chain
                    for st in self._classes.values()
                    for entry in st.entries.values()
                ),
                default=0,
            )

    def gauges(self) -> dict:
        """What is read off the index and files rather than counted."""
        with self._lock:
            return {
                "generation": self._generation,
                "snapshot_every": self.snapshot_every,
                "classes": len(self._classes),
                "pack_bytes": self._pack.end,
                "live_pack_bytes": self._live_bytes,
                "garbage_bytes": max(
                    self._pack.end - FILE_HEADER.size - self._live_bytes, 0
                ),
                "journal_bytes": self._journal.bytes,
                "max_chain_length": self.max_chain_length(),
            }

    def snapshot(self) -> dict:
        """JSON-friendly state for ``/__health__``: gauges plus ``stats``."""
        with self._lock:
            return {
                "state_dir": str(self.state_dir),
                **self.gauges(),
                **stats_dict(self.stats),
            }

    # -- compaction ----------------------------------------------------------------

    def compact(self) -> int:
        """Rewrite live frames into a fresh generation; returns bytes freed.

        The new pack and journal are written completely and fsync'd, then
        ``CURRENT`` is swapped atomically — a crash at any point leaves
        either the old or the new generation fully intact.
        """
        with self._lock:
            old_generation = self._generation
            new_generation = old_generation + 1
            new_pack_path = self._pack_path(new_generation)
            new_journal_path = self._journal_path(new_generation)
            for stale in (new_pack_path, new_journal_path):
                if stale.exists():
                    stale.unlink()  # leftovers of a crashed compaction
            freed = self.garbage_bytes
            new_pack = Pack(new_pack_path)
            new_journal = Journal(new_journal_path)
            moves: dict[tuple[str, int], tuple[int, int]] = {}
            try:
                for st in self._ordered_states():
                    new_journal.append(
                        {
                            "type": REC_CLASS,
                            "class_id": st.class_id,
                            "server": st.server,
                            "hint": st.hint,
                        },
                        sync=False,
                    )
                    for url in st.members:
                        new_journal.append(
                            {
                                "type": REC_MEMBER,
                                "class_id": st.class_id,
                                "url": url,
                            },
                            sync=False,
                        )
                    if st.hits:
                        new_journal.append(
                            {
                                "type": REC_HITS,
                                "class_id": st.class_id,
                                "hits": st.hits,
                            },
                            sync=False,
                        )
                    for version in sorted(st.entries):
                        entry = st.entries[version]
                        body = self._pack.read(entry.offset, entry.length)
                        offset, length = new_pack.append(body, sync=False)
                        moves[(st.class_id, version)] = (offset, length)
                        record = {
                            "type": REC_BASE,
                            "class_id": st.class_id,
                            "version": version,
                            "offset": offset,
                            "length": length,
                            "encoding": entry.encoding,
                            "parent": entry.parent,
                            "chain": entry.chain,
                            "doc_checksum": entry.doc_checksum,
                            "doc_bytes": entry.doc_bytes,
                        }
                        # The sketch describes the latest base only; it
                        # must survive compaction like any other fact.
                        if version == st.latest and st.sketch:
                            record["sketch"] = st.sketch
                        new_journal.append(record, sync=False)
                new_pack.sync()
                new_journal.sync()
            except Exception:
                new_pack.close()
                new_journal.close()
                with contextlib.suppress(OSError):
                    new_pack_path.unlink()
                with contextlib.suppress(OSError):
                    new_journal_path.unlink()
                raise
            # The commit point: CURRENT now names the new generation.
            self._write_current(new_generation)
            old_pack, old_journal = self._pack, self._journal
            self._pack, self._journal = new_pack, new_journal
            self._journal.records = self.stats.journal_records = sum(
                1 + len(st.members) + len(st.entries) + (1 if st.hits else 0)
                for st in self._classes.values()
            )
            self._generation = new_generation
            for (class_id, version), (offset, length) in moves.items():
                entry = self._classes[class_id].entries[version]
                entry.offset, entry.length = offset, length
            old_pack.close()
            old_journal.close()
            for stale in (
                self._pack_path(old_generation),
                self._journal_path(old_generation),
            ):
                with contextlib.suppress(OSError):
                    stale.unlink()
            self.stats.compactions += 1
            return freed

    def _ordered_states(self) -> list[ClassState]:
        return [self._classes[cid] for cid in sorted(self._classes, key=_class_sort)]

    # -- lifecycle -----------------------------------------------------------------

    def sync(self) -> None:
        with self._lock:
            self._pack.sync()
            self._journal.sync()

    def close(self) -> None:
        """Close pack and journal; idempotent (drain paths may double-close)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._pack.close()
            self._journal.close()


def _class_sort(class_id: str) -> tuple[int, str]:
    """Numeric-aware ordering so ``cls10`` sorts after ``cls9``.

    Only the trailing digit run counts, so fleet-prefixed ids
    (``w3-cls12``) order by their counter, not by ``312``.
    """
    match = re.search(r"(\d+)$", class_id)
    return (int(match.group(1)) if match else 0, class_id)


def _frame_valid(pack_data: bytes, offset: int, length: int) -> bool:
    """CRC-verify one pack frame inside the raw file image (recovery path)."""
    from repro.store.format import FRAME_HEADER

    if offset < FILE_HEADER.size or length < FRAME_HEADER.size:
        return False
    if offset + length > len(pack_data):
        return False
    payload_length, crc = FRAME_HEADER.unpack_from(pack_data, offset)
    if FRAME_HEADER.size + payload_length != length:
        return False
    payload = pack_data[offset + FRAME_HEADER.size : offset + length]
    return frame_crc(payload) == crc


def inspect_state_dir(state_dir: Path | str) -> dict:
    """Read-only dump of a state directory for ``repro store inspect``.

    Never truncates or repairs anything — torn tails are *reported*, not
    fixed, so inspection of a crashed state dir is side-effect free.
    """
    from repro.store.format import check_header
    from repro.store.pack import PACK_MAGIC

    state_dir = Path(state_dir)
    current = state_dir / CURRENT_FILE
    try:
        generation = int(current.read_text().strip())
    except (FileNotFoundError, ValueError):
        generation = 1
    journal_path = state_dir / f"journal-{generation:06d}.rjl"
    pack_path = state_dir / f"pack-{generation:06d}.rpk"

    journal_info: dict = {"path": str(journal_path), "records": []}
    if journal_path.exists():
        try:
            records, valid_end, size = scan_journal(journal_path)
        except StoreFormatError as exc:
            journal_info["error"] = str(exc)
        else:
            journal_info["records"] = [
                {"offset": offset, **record} for offset, record in records
            ]
            journal_info["bytes"] = size
            journal_info["torn_tail_bytes"] = size - valid_end
    else:
        journal_info["missing"] = True

    pack_info: dict = {"path": str(pack_path), "frames": []}
    if pack_path.exists():
        data = pack_path.read_bytes()
        try:
            check_header(data, PACK_MAGIC, str(pack_path))
        except StoreFormatError as exc:
            pack_info["error"] = str(exc)
        else:
            frames, valid_end = scan_frames(data, FILE_HEADER.size)
            pack_info["frames"] = [
                {"offset": frame.offset, "payload_bytes": len(frame.payload)}
                for frame in frames
            ]
            pack_info["bytes"] = len(data)
            pack_info["torn_tail_bytes"] = len(data) - valid_end
    else:
        pack_info["missing"] = True

    classes: dict[str, dict] = {}
    for entry in journal_info.get("records", []):
        rtype = entry.get("type")
        class_id = entry.get("class_id")
        if rtype == REC_CLASS:
            classes.setdefault(
                class_id,
                {
                    "server": entry.get("server"),
                    "hint": entry.get("hint"),
                    "members": 0,
                    "versions": [],
                    "latest": None,
                },
            )
        elif class_id in classes:
            summary = classes[class_id]
            if rtype == REC_MEMBER:
                summary["members"] += 1
            elif rtype == REC_BASE:
                version = entry.get("version")
                if version not in summary["versions"]:
                    summary["versions"].append(version)
                summary["latest"] = version
            elif rtype in (REC_RELEASE, REC_QUARANTINE):
                summary["versions"] = []
                summary["latest"] = None
            elif rtype == REC_EVICT:
                evicted = set(entry.get("versions", ()))
                summary["versions"] = [
                    v for v in summary["versions"] if v not in evicted
                ]
    return {
        "state_dir": str(state_dir),
        "generation": generation,
        "journal": journal_info,
        "pack": pack_info,
        "classes": classes,
    }
