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
    3. ``apply`` that record to the in-memory index.

The journal record is the commit point, and the journal is the only
writer of the index: a live operation appends a record and hands that
record to :meth:`Index.apply`, the function every replay of the journal
runs, so the live index and a reopen cannot differ.  A crash between (1)
and (2) leaves an orphan pack tail that recovery truncates; a crash
mid-append leaves a torn frame that the CRC framing rejects.  Recovery
replays the journal's valid prefix in order, re-verifying every
referenced pack frame's CRC as it goes, and cuts *both* files at the
first damage — the surviving state is always the exact state some
fsync'd commit produced, so a torn or half-written base-file can never
be served.

Space reclamation
-----------------

``evict_history`` moves a cold class's non-latest versions to garbage
(after re-rooting the latest as a full snapshot so it stays
materializable); ``release``/``quarantine`` drop a class's payloads
entirely.  Garbage bytes stay in the pack until ``compact`` rewrites the
live frames into a fresh generation and swaps ``CURRENT`` atomically —
a crash mid-compaction leaves the old generation intact.  Dropping bytes
never drops a version *name*: each class keeps ``high_version``, carried
by the release/quarantine records and re-emitted by compaction, so a
restarted engine resumes numbering past every ref it ever published.
"""

from __future__ import annotations

import contextlib
import os
import re
import threading
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable

from repro.delta import apply_delta, checksum, make_delta
from repro.delta.compress import compress, decompress
from repro.delta.errors import DeltaError
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import counter, gauge, stats_dict
from repro.store.format import (
    FILE_HEADER,
    StoreFormatError,
    check_header,
    frame_payload,
    scan_frames,
)
from repro.store.journal import (
    REC_BASE,
    REC_CLASS,
    REC_EVICT,
    REC_HITS,
    REC_MEMBER,
    REC_QUARANTINE,
    REC_RELEASE,
    Journal,
    PackEntry,
    base_record,
    class_record,
    entry_of,
    evict_record,
    hits_record,
    member_record,
    quarantine_record,
    release_record,
    scan_journal,
    truncate_file,
)
from repro.store.pack import PACK_MAGIC, Pack, PackCorruptionError

CURRENT_FILE = "CURRENT"

#: the default chain bound K: a full snapshot roots every K-th version
DEFAULT_SNAPSHOT_EVERY = 8

#: journal a hit-count checkpoint every this many hits per class — the
#: trade between journal growth (one tiny record per stride) and how much
#: popularity-ordering accuracy a crash can cost (at most stride-1 hits)
HIT_JOURNAL_STRIDE = 16

FULL = "full"
DELTA = "delta"


class StoreError(Exception):
    """A store invariant failed (unknown class/version, broken chain)."""


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
    #: the largest version any base record of this class ever named;
    #: release, quarantine and eviction never lower it, so a warm restart
    #: never mints a base ref again for other bytes
    high_version: int = 0

    @property
    def live_bytes(self) -> int:
        return sum(entry.length for entry in self.entries.values())


@dataclass(slots=True)
class Index:
    """What a journal's records add up to: the classes and their live bytes."""

    classes: dict[str, ClassState] = field(default_factory=dict)
    live_bytes: int = 0

    def apply(self, record: dict, pack_image: bytes | None = None) -> PackEntry | None:
        """Fold one journal record into the index — its only writer.

        The live path calls this on the record it just journaled,
        compaction on each record it emits, and a replay (recovery,
        inspect, verify) on each record it read, passing the pack's file
        image so the frame a ``base_committed`` record points at is
        CRC-checked *before* the record counts.  Returns the entry a base
        record installed.

        A malformed record raises ``KeyError``/``TypeError``/``ValueError``
        and a damaged frame :class:`StoreFormatError`, in both cases
        before anything changed.  A record about a class the index does
        not hold (its class record was lost to an earlier repair) and a
        record of a type this build does not know are skipped.
        """
        rtype = record.get("type")
        if rtype == REC_CLASS:
            class_id = record["class_id"]
            if class_id not in self.classes:
                self.classes[class_id] = ClassState(
                    class_id=class_id, server=record["server"], hint=record["hint"]
                )
            return None
        st = self.classes.get(record.get("class_id"))
        if st is None:
            return None
        if rtype == REC_MEMBER:
            url = record["url"]
            if url not in st.member_set:
                st.member_set.add(url)
                st.members.append(url)
        elif rtype == REC_BASE:
            entry = entry_of(record)
            sketch = record.get("sketch")
            sketch = list(sketch) if sketch else None
            if pack_image is not None:
                if entry.offset < FILE_HEADER.size:
                    raise StoreFormatError(f"frame at {entry.offset}: in the header")
                frame_payload(pack_image, entry.offset, entry.length)
            # A re-rooting commit replaces the entry for an existing
            # version; the replaced frame is garbage.
            replaced = st.entries.get(entry.version)
            if replaced is not None:
                self.live_bytes -= replaced.length
            self.live_bytes += entry.length
            st.entries[entry.version] = entry
            st.high_version = max(st.high_version, entry.version)
            if st.latest is None or entry.version >= st.latest:
                st.latest = entry.version
                # The sketch always describes the latest base; older
                # records' sketches are stale the moment a newer
                # version commits (with or without one of its own).
                st.sketch = sketch
            return entry
        elif rtype in (REC_RELEASE, REC_QUARANTINE):
            st.high_version = max(st.high_version, int(record.get("version", 0)))
            self.live_bytes -= st.live_bytes
            st.entries.clear()
            st.latest = None
            st.sketch = None
        elif rtype == REC_HITS:
            # Monotone: a stale checkpoint never lowers the count.
            st.hits = max(st.hits, int(record["hits"]))
        elif rtype == REC_EVICT:
            for version in [int(v) for v in record.get("versions", ())]:
                evicted = st.entries.pop(version, None)
                if evicted is not None:
                    self.live_bytes -= evicted.length
        return None


def materialize(
    st: ClassState, version: int, read: Callable[[int, int], bytes], bound: int
) -> bytes:
    """Reconstruct one committed version of ``st``, checksum-verified.

    ``read(offset, length)`` returns a frame's CRC-verified payload (the
    open pack for a live store, the file image for ``store verify``);
    ``bound`` is the longest chain walked before giving up.
    """
    chain: list[PackEntry] = []
    v: int | None = version
    while True:
        if v is None:
            raise StoreError(
                f"{st.class_id} v{version}: chain has no full-snapshot root"
            )
        entry = st.entries.get(v)
        if entry is None:
            raise StoreError(f"{st.class_id} v{version}: v{v} is not in the store")
        chain.append(entry)
        if entry.encoding == FULL:
            break
        if len(chain) > bound:
            raise StoreError(f"{st.class_id} v{version}: chain exceeds bound")
        v = entry.parent
    try:
        document = decompress(read(chain[-1].offset, chain[-1].length))
        for entry in reversed(chain[:-1]):
            delta = decompress(read(entry.offset, entry.length))
            document = apply_delta(delta, document)
    except (DeltaError, OSError, ValueError) as exc:
        raise StoreError(f"{st.class_id} v{version}: {exc}") from exc
    if checksum(document) != chain[0].doc_checksum:
        raise StoreError(
            f"{st.class_id} v{version}: materialized bytes fail their checksum"
        )
    return document


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
        #: last committed document per class, kept so the next commit can
        #: delta against it without touching disk (shares the engine's
        #: bytes object — no copy).
        self._tips: dict[str, bytes] = {}
        self.state_dir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        self._recover()
        self.stats.recovery_ms = (time.perf_counter() - started) * 1000.0
        self.stats.warm_start = bool(self._index.classes)

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
        # A fresh directory replays to an empty index with nothing to cut.
        found = replay(self.state_dir)
        pack_path, journal_path = found.pack_path, found.journal_path
        # Torn-tail repair: cut the journal after its last good record and
        # the pack after the last frame a surviving record references.
        if found.journal_size and found.journal_end < found.journal_size:
            if found.journal_end == 0:
                journal_path.unlink()
            else:
                truncate_file(journal_path, found.journal_end)
            self.stats.journal_truncated_bytes = found.journal_size - found.journal_end
        pack_size = len(found.pack_image)
        if found.pack_error is not None:
            # Unreadable (or no) pack header: no payload survived; start fresh.
            pack_path.unlink(missing_ok=True)
            self.stats.pack_truncated_bytes = pack_size
        elif pack_size > found.pack_high:
            truncate_file(pack_path, found.pack_high)
            self.stats.pack_truncated_bytes = pack_size - found.pack_high

        self._pack = Pack(pack_path)
        self._journal = Journal(journal_path)
        self._index = found.index
        self._generation = found.generation
        self.stats.journal_records = found.applied
        self._write_current(self._generation)

    # -- journaled events --------------------------------------------------------

    def _commit(self, record: dict, *, sync: bool) -> PackEntry | None:
        """Journal one record, then apply the record just written."""
        self._journal.append(record, sync=sync and self._fsync)
        self.stats.journal_records += 1
        return self._index.apply(record)

    def _commit_frame(
        self, class_id: str, body: bytes, sketch, **entry_fields
    ) -> PackEntry:
        """The commit protocol: pack frame (fsync), then its ``base_committed``
        record (fsync), then the index."""
        offset, length = self._pack.append(body, sync=self._fsync)
        entry = PackEntry(offset=offset, length=length, **entry_fields)
        return self._commit(base_record(class_id, entry, sketch), sync=True)

    def add_class(self, class_id: str, server: str, hint: str) -> None:
        with self._lock:
            if class_id not in self._index.classes:
                self._commit(class_record(class_id, server, hint), sync=False)

    def add_member(self, class_id: str, url: str) -> None:
        with self._lock:
            st = self._index.classes.get(class_id)
            if st is not None and url not in st.member_set:
                self._commit(member_record(class_id, url), sync=False)

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
            st = self._index.classes.get(class_id)
            if st is None:
                raise StoreError(f"unknown class {class_id!r}")
            body, encoding, parent, chain = self._encode_body(st, document)
            entry = self._commit_frame(
                class_id,
                body,
                signature,
                version=version,
                encoding=encoding,
                parent=parent,
                chain=chain,
                doc_checksum=doc_checksum,
                doc_bytes=len(document),
            )
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
                parent_doc = self._materialize(st, parent_version)
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
            st = self._index.classes.get(class_id)
            if st is None:
                return 0
            return self._drop_payloads(
                st, quarantine_record(class_id, cause, st.high_version)
            )

    def release(self, class_id: str) -> int:
        """Journal a storage-pressure base release; payloads become garbage."""
        with self._lock:
            st = self._index.classes.get(class_id)
            if st is None:
                return 0
            self.stats.releases += 1
            return self._drop_payloads(st, release_record(class_id, st.high_version))

    def _drop_payloads(self, st: ClassState, record: dict) -> int:
        freed = st.live_bytes
        self._commit(record, sync=True)
        self._tips.pop(st.class_id, None)
        return freed

    def record_hits(self, class_id: str, hits: int) -> None:
        """Checkpoint a class's absolute hit count (popularity).

        Buffered, not fsync'd: losing the tail after a crash costs a few
        hits of probe-ordering accuracy, nothing more.  Callers throttle
        (the grouper checkpoints every :data:`HIT_JOURNAL_STRIDE` hits) so
        the journal grows by one small record per stride of hits, not per
        request.  Monotone: a stale checkpoint never lowers the count.
        """
        with self._lock:
            st = self._index.classes.get(class_id)
            if st is not None and hits > st.hits:
                self._commit(hits_record(class_id, hits), sync=False)

    def evict_history(self, class_id: str) -> int:
        """Turn a class's non-latest versions into garbage (cold-history
        eviction).  The latest version is re-rooted as a full snapshot
        first when it is a chain delta, so it stays materializable.
        Returns live bytes turned to garbage."""
        with self._lock:
            st = self._index.classes.get(class_id)
            if st is None or st.latest is None or len(st.entries) <= 1:
                return 0
            latest = st.entries[st.latest]
            if latest.encoding != FULL:
                try:
                    document = self._materialize(st, st.latest)
                except (StoreError, PackCorruptionError, DeltaError):
                    # The chain is damaged on disk; nothing behind the
                    # engine's in-memory copy is salvageable — release.
                    return self.release(class_id)
                # Same version, same document, so also the same sketch: the
                # record carries it and a replay keeps it, as the live index does.
                self._commit_frame(
                    class_id,
                    compress(document),
                    st.sketch,
                    version=latest.version,
                    encoding=FULL,
                    parent=None,
                    chain=1,
                    doc_checksum=latest.doc_checksum,
                    doc_bytes=latest.doc_bytes,
                )
                self._tips[class_id] = document
            evicted = sorted(v for v in st.entries if v != st.latest)
            freed = sum(st.entries[v].length for v in evicted)
            self._commit(evict_record(class_id, evicted), sync=True)
            self.stats.history_evictions += 1
            return freed

    # -- reads -------------------------------------------------------------------

    def classes(self) -> list[ClassState]:
        with self._lock:
            return list(self._index.classes.values())

    def class_state(self, class_id: str) -> ClassState | None:
        with self._lock:
            return self._index.classes.get(class_id)

    def materialize(self, class_id: str, version: int) -> bytes:
        """Reconstruct one committed base-file version, checksum-verified."""
        with self._lock:
            st = self._index.classes.get(class_id)
            if st is None:
                raise StoreError(f"unknown class {class_id!r}")
            return self._materialize(st, version)

    def _materialize(self, st: ClassState, version: int) -> bytes:
        return materialize(st, version, self._pack.read, self.snapshot_every + 1)

    # -- accounting ----------------------------------------------------------------

    @property
    def pack_bytes(self) -> int:
        with self._lock:
            return self._pack.end

    @property
    def live_pack_bytes(self) -> int:
        with self._lock:
            return self._index.live_bytes

    @property
    def garbage_bytes(self) -> int:
        with self._lock:
            payload = self._pack.end - FILE_HEADER.size
            return max(payload - self._index.live_bytes, 0)

    def garbage_ratio(self) -> float:
        with self._lock:
            payload = self._pack.end - FILE_HEADER.size
            return self.garbage_bytes / payload if payload > 0 else 0.0

    def class_disk_bytes(self, class_id: str) -> int:
        """Live on-disk chain bytes one class pins (its history cost)."""
        with self._lock:
            st = self._index.classes.get(class_id)
            return st.live_bytes if st is not None else 0

    def max_chain_length(self) -> int:
        with self._lock:
            return max(
                (
                    entry.chain
                    for st in self._index.classes.values()
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
                "classes": len(self._index.classes),
                "pack_bytes": self._pack.end,
                "live_pack_bytes": self._index.live_bytes,
                "garbage_bytes": self.garbage_bytes,
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
        either the old or the new generation fully intact.  The new
        generation's index is built by applying the records as they are
        written, so it is by construction what a reopen would replay.
        """
        with self._lock:
            old_generation = self._generation
            new_generation = old_generation + 1
            new_pack_path, new_journal_path = _paths(self.state_dir, new_generation)
            for stale in (new_pack_path, new_journal_path):
                stale.unlink(missing_ok=True)  # leftovers of a crashed compaction
            freed = self.garbage_bytes
            new_pack = Pack(new_pack_path)
            new_journal = Journal(new_journal_path)
            new_index = Index()
            emitted = 0

            def emit(record: dict) -> None:
                nonlocal emitted
                new_journal.append(record, sync=False)
                new_index.apply(record)
                emitted += 1

            try:
                for class_id in sorted(self._index.classes, key=_class_sort):
                    st = self._index.classes[class_id]
                    emit(class_record(class_id, st.server, st.hint))
                    for url in st.members:
                        emit(member_record(class_id, url))
                    if st.hits:
                        emit(hits_record(class_id, st.hits))
                    if st.high_version > (st.latest or 0):
                        # Versions that are gone still name bytes someone
                        # may hold: their high-water mark survives too.
                        emit(release_record(class_id, st.high_version))
                    for version in sorted(st.entries):
                        entry = st.entries[version]
                        body = self._pack.read(entry.offset, entry.length)
                        offset, length = new_pack.append(body, sync=False)
                        moved = replace(entry, offset=offset, length=length)
                        # The sketch describes the latest base only; it
                        # must survive compaction like any other fact.
                        sketch = st.sketch if version == st.latest else None
                        emit(base_record(class_id, moved, sketch))
                new_pack.sync()
                new_journal.sync()
            except Exception:
                new_pack.close()
                new_journal.close()
                for stale in (new_pack_path, new_journal_path):
                    with contextlib.suppress(OSError):
                        stale.unlink()
                raise
            # The commit point: CURRENT now names the new generation.
            self._write_current(new_generation)
            old_pack, old_journal = self._pack, self._journal
            self._pack, self._journal, self._index = new_pack, new_journal, new_index
            self.stats.journal_records = emitted
            self._generation = new_generation
            old_pack.close()
            old_journal.close()
            for stale in _paths(self.state_dir, old_generation):
                with contextlib.suppress(OSError):
                    stale.unlink()
            self.stats.compactions += 1
            return freed

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


def _paths(state_dir: Path, generation: int) -> tuple[Path, Path]:
    """``(pack, journal)`` file paths of one generation."""
    return (
        state_dir / f"pack-{generation:06d}.rpk",
        state_dir / f"journal-{generation:06d}.rjl",
    )


@dataclass(slots=True)
class Replay:
    """What a state directory's live generation adds up to, read-only."""

    generation: int
    pack_path: Path
    journal_path: Path
    pack_image: bytes
    pack_error: str | None = None  # the pack header is unreadable
    journal_error: str | None = None  # the journal header is unreadable
    #: every CRC-valid journal record with its file offset; the first
    #: ``applied`` of them are the consistent prefix ``index`` was built from
    records: list[tuple[int, dict]] = field(default_factory=list)
    applied: int = 0
    index: Index = field(default_factory=Index)
    #: why the record after the prefix was refused (None: all applied)
    damage: str | None = None
    journal_size: int = 0
    journal_end: int = FILE_HEADER.size  # where recovery cuts the journal …
    pack_high: int = FILE_HEADER.size  # … and the pack


def replay(state_dir: Path) -> Replay:
    """Apply the journal's verified prefix: the read-only half of recovery.

    The prefix ends at the first record that is malformed or points at
    damaged pack bytes (each referenced frame is CRC-checked against the
    pack's file image as its record is applied); ``journal_end`` and
    ``pack_high`` are the offsets recovery truncates the two files to.
    """
    try:
        generation = int((state_dir / CURRENT_FILE).read_text().strip())
    except (FileNotFoundError, ValueError):
        generation = 1
    pack_path, journal_path = _paths(state_dir, generation)
    image = pack_path.read_bytes() if pack_path.exists() else b""
    found = Replay(generation, pack_path, journal_path, image)
    try:
        check_header(image, PACK_MAGIC, str(pack_path))
    except StoreFormatError as exc:
        # With an unreadable header no frame can be trusted, whatever its
        # bytes happen to check out as: every base record will be refused.
        found.pack_error, found.pack_high, image = str(exc), 0, b""
    if journal_path.exists():
        try:
            found.records, found.journal_end, found.journal_size = scan_journal(
                journal_path
            )
        except StoreFormatError as exc:
            # The journal header itself is damaged: nothing after it
            # can be trusted.  Start the state over (the pack becomes
            # all-garbage and is truncated by recovery).
            found.journal_error = str(exc)
            found.journal_end, found.journal_size = 0, journal_path.stat().st_size
    for offset, record in found.records:
        try:
            entry = found.index.apply(record, image)
        except (KeyError, TypeError, ValueError, StoreFormatError) as exc:
            # Malformed, or referencing torn/corrupt pack bytes: the
            # consistent prefix ends *before* this record.
            found.journal_end, found.damage = offset, f"{type(exc).__name__}: {exc}"
            break
        if entry is not None:
            found.pack_high = max(found.pack_high, entry.offset + entry.length)
        found.applied += 1
    return found


def inspect_state_dir(state_dir: Path | str) -> dict:
    """Read-only dump of a state directory for ``repro store inspect``.

    Never truncates or repairs anything — torn tails are *reported*, not
    fixed, so inspection of a crashed state dir is side-effect free.
    ``classes`` and both ``torn_tail_bytes`` are what opening the store
    would recover and cut; ``journal.records`` is every record that
    passes its CRC, verbatim.
    """
    found = replay(Path(state_dir))
    journal_info: dict = {"path": str(found.journal_path), "records": []}
    if not found.journal_path.exists():
        journal_info["missing"] = True
    elif found.journal_error is not None:
        journal_info["error"] = found.journal_error
    else:
        journal_info["records"] = [
            {"offset": offset, **record} for offset, record in found.records
        ]
        journal_info["bytes"] = found.journal_size
        journal_info["torn_tail_bytes"] = found.journal_size - found.journal_end

    pack_info: dict = {"path": str(found.pack_path), "frames": []}
    if not found.pack_path.exists():
        pack_info["missing"] = True
    elif found.pack_error is not None:
        pack_info["error"] = found.pack_error
    else:
        frames, _ = scan_frames(found.pack_image, FILE_HEADER.size)
        pack_info["frames"] = [
            {"offset": frame.offset, "payload_bytes": len(frame.payload)}
            for frame in frames
        ]
        pack_info["bytes"] = len(found.pack_image)
        pack_info["torn_tail_bytes"] = len(found.pack_image) - found.pack_high

    return {
        "state_dir": str(state_dir),
        "generation": found.generation,
        "journal": journal_info,
        "pack": pack_info,
        "classes": {
            class_id: {
                "server": st.server,
                "hint": st.hint,
                "members": len(st.members),
                "versions": sorted(st.entries),
                "latest": st.latest,
            }
            for class_id, st in found.index.classes.items()
        },
    }


def verify_state_dir(state_dir: Path | str) -> str:
    """Offline fsck for ``repro store verify``: read-only, never repairs.

    Replays the directory as recovery would, then materializes every
    ``(class, version)`` in the index: frame CRCs, a full-snapshot root
    under every chain, the document checksum, and the persisted sketch's
    length against this build's MinHash geometry.  Returns a one-line
    summary; raises :class:`StoreError` naming the first bad version.  A
    torn *tail* (a crash mid-append) is what recovery cuts, not damage.
    """
    from repro.core.sketch import MinHashSketcher  # core imports the store

    found = replay(Path(state_dir))
    bad = found.journal_error or found.pack_error
    if bad is None and found.damage is not None:
        # A record that passed its own CRC was refused: not a torn tail.
        record = found.records[found.applied][1]
        bad = f"{record.get('class_id')} v{record.get('version')}: {found.damage}"
    if bad is not None:
        raise StoreError(bad)
    index, image = found.index, found.pack_image
    read = partial(frame_payload, image)
    num_perm = MinHashSketcher().num_perm
    versions = 0
    for class_id in sorted(index.classes, key=_class_sort):
        st = index.classes[class_id]
        for version in sorted(st.entries):
            # A chain longer than the class has versions is a cycle.
            materialize(st, version, read, len(st.entries))
            versions += 1
        if st.sketch is not None and len(st.sketch) != num_perm:
            raise StoreError(
                f"{class_id} v{st.latest}: sketch has {len(st.sketch)} values, "
                f"this build's MinHash geometry has {num_perm}"
            )
    return (
        f"generation {found.generation}: {len(index.classes)} classes, {versions} "
        f"versions verified; torn tails (recovery cuts them): journal "
        f"{found.journal_size - found.journal_end}, pack {len(image) - found.pack_high}"
    )
