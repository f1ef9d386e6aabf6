"""Document classes: the unit of base-file sharing.

Under class-based delta-encoding "dynamic documents are grouped into
classes, and a single base-file is stored at the server per class"
(Section II).  A :class:`DocumentClass` owns:

* its membership (URLs grouped into it) and popularity counter, which the
  grouping search uses to order candidate classes;
* the *raw* base-file (chosen by the selection policy) and the
  *distributable* base-file (the anonymized version clients may hold),
  with a version number bumped on every promotion so stale client copies
  are detectable;
* cached differ indexes for both, since one base-file is diffed against
  every in-class request.

The two-stage base lifecycle implements Section V's rule that a base-file
"should not be distributed to clients" until anonymized, while "if there is
already an anonymized base-file and a rebase is triggered, the previous
base-file can be used until the new one is properly anonymized".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.anonymize import AnonymizationState, Anonymizer
from repro.core.base_file import BaseFilePolicy
from repro.core.config import AnonymizationConfig
from repro.delta.codec import checksum
from repro.delta.light import LightEstimator
from repro.delta.vdelta import BaseIndex, VdeltaEncoder


@dataclass(slots=True)
class ClassStats:
    """Per-class accounting."""

    hits: int = 0
    deltas_served: int = 0
    full_served: int = 0
    group_rebases: int = 0
    basic_rebases: int = 0


class EncodeCache:
    """Per-class LRU of encoded deltas keyed by (base version, target checksum).

    Popular classes see the same (base, document) pair repeatedly — every
    member URL rendering the same snapshot, every concurrent client holding
    the current base — and the encode+compress is by far the most expensive
    stage of such a request.  One entry memoizes the finished artifact:
    ``(wire_size, compressed_payload)``.

    Safety: a hit can never serve a stale delta.  Entries are keyed by the
    base *version*, the engine's snapshot-encode-commit protocol revalidates
    that exact version at commit time, and versions are never reused within
    one process (the counter is monotonic; :meth:`DocumentClass.release_base`
    keeps it, and :meth:`DocumentClass.restore_base` — the engine's warm
    restart setting the persisted version — clears the cache).  A restart
    can re-mint a number a released class used before it (ROADMAP item
    1), but the cache starts empty in every process, so it never holds
    both.  The target checksum pins the document bytes; base bytes for a
    version are pinned by the promotion-time integrity checksum (corruption
    quarantines, which also clears).

    The cache has its own lock so the engine's off-lock encode path can
    consult it without touching the class lock.
    """

    __slots__ = ("capacity", "_entries", "_lock")

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._entries: OrderedDict[tuple[int, int], tuple[int, bytes]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, version: int, target_checksum: int) -> tuple[int, bytes] | None:
        """Cached ``(wire_size, payload)`` for the pair, refreshing recency."""
        key = (version, target_checksum)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(
        self, version: int, target_checksum: int, wire_size: int, payload: bytes
    ) -> None:
        key = (version, target_checksum)
        with self._lock:
            self._entries[key] = (wire_size, payload)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class DocumentClass:
    """One class of similar documents sharing a single base-file."""

    def __init__(
        self,
        class_id: str,
        server: str,
        hint: str,
        anonymization: AnonymizationConfig,
        policy: BaseFilePolicy,
        encoder: VdeltaEncoder,
        estimator: LightEstimator,
        created_at: float = 0.0,
    ) -> None:
        self.class_id = class_id
        self.server = server
        self.hint = hint
        self.created_at = created_at
        self.policy = policy
        self.stats = ClassStats()
        self.members: set[str] = set()
        self.last_rebase_at = created_at

        # The sharded engine's unit of mutual exclusion: every mutation of
        # class state (membership, base lifecycle, policy samples, index
        # caches) happens under this lock, taken by the engine/grouper —
        # the methods below do not take it themselves, so lock-holding
        # callers can compose them freely.  Reentrant because composite
        # operations (ingest → rebase → adopt) nest helper calls.
        self.lock = threading.RLock()

        self._anon_config = anonymization
        self._encoder = encoder
        self._estimator = estimator

        self._raw_base: bytes | None = None
        self._distributable: bytes | None = None
        self.version = 0
        self._pending: Anonymizer | None = None

        # Self-healing: every distributable base is checksummed on
        # promotion so storage corruption is detected before a delta is
        # computed against rotten bytes; a quarantined class serves fulls
        # until it re-adopts a fresh base from the next good fetch.
        self.quarantined = False
        self._checksum: int | None = None
        self._previous_checksum: int | None = None

        # One previous distributable generation is kept live so clients
        # holding it keep receiving deltas across a rebase instead of
        # falling back to full responses while they re-fetch the new base.
        self._previous: bytes | None = None
        self._previous_version: int | None = None
        self._previous_index: BaseIndex | None = None

        self._full_index: BaseIndex | None = None
        self._light_index: BaseIndex | None = None

        # The MinHash sketch of the current base (see repro.core.sketch):
        # the grouper registers it in the LSH candidate index and the
        # store persists it next to the committed base, so a warm restart
        # does not re-sketch every base.  Keyed by base object identity
        # (like the differ index caches) so promote/rebase/restore
        # invalidate it without extra bookkeeping.
        self.base_signature: tuple[int, ...] | None = None
        self._sketch_base: bytes | None = None

        # Finished (wire_size, compressed payload) artifacts per
        # (base version, target checksum); see EncodeCache for why hits
        # are safe across the engine's snapshot-encode-commit races.
        self.encode_cache = EncodeCache()

    # -- membership ----------------------------------------------------------

    @property
    def key(self) -> tuple[str, str]:
        """(server-part, hint-part) search key."""
        return (self.server, self.hint)

    @property
    def popularity(self) -> int:
        """Request count; the grouping search probes popular classes first."""
        return self.stats.hits

    def add_member(self, url: str) -> None:
        self.members.add(url)

    # -- content sketch --------------------------------------------------------

    def note_signature(
        self, signature: "tuple[int, ...] | None", base: bytes | None
    ) -> None:
        """Record the MinHash signature computed from exactly ``base``."""
        self.base_signature = signature
        self._sketch_base = base

    def signature_for(self, base: bytes | None) -> "tuple[int, ...] | None":
        """The cached signature iff it was computed from this ``base``
        object (identity check, same invalidation rule as the differ
        index caches)."""
        if base is not None and base is self._sketch_base:
            return self.base_signature
        return None

    # -- base-file lifecycle ---------------------------------------------------

    @property
    def raw_base(self) -> bytes | None:
        """The currently adopted (possibly not yet distributable) base-file."""
        return self._raw_base

    @property
    def distributable_base(self) -> bytes | None:
        """The anonymized base-file clients may cache, or ``None``."""
        return self._distributable

    @property
    def can_serve_deltas(self) -> bool:
        return (
            not self.quarantined
            and self._distributable is not None
            and len(self._distributable) > 0
        )

    @property
    def anonymization_pending(self) -> bool:
        return (
            self._pending is not None
            and self._pending.state is AnonymizationState.COLLECTING
        )

    def adopt_base(self, document: bytes, owner_user: str | None, now: float) -> None:
        """Adopt a new raw base-file and start (re-)anonymizing it.

        The previous distributable base, if any, stays in service until the
        new one is ready.  Adopting also lifts any quarantine: a fresh
        base from a good fetch is exactly the recovery path.
        """
        self.quarantined = False
        self._raw_base = document
        self.last_rebase_at = now
        self._pending = Anonymizer(
            document, self._anon_config, encoder=self._encoder, owner_user=owner_user
        )
        if self._pending.state is AnonymizationState.DISABLED:
            self._promote(self._pending)

    def feed(self, document: bytes, user_id: str | None) -> None:
        """Feed one in-class document to the pending anonymization, if any."""
        if self._pending is None:
            return
        self._pending.observe(document, user_id)
        if self._pending.state is AnonymizationState.READY:
            self._promote(self._pending)

    def _promote(self, anonymizer: Anonymizer) -> None:
        assert anonymizer.anonymized is not None
        if self._distributable is not None:
            self._previous = self._distributable
            self._previous_version = self.version
            self._previous_index = self._full_index
            self._previous_checksum = self._checksum
        self._distributable = anonymizer.anonymized
        self._checksum = checksum(self._distributable)
        self.version += 1
        self._pending = None
        self._full_index = None
        self._light_index = None

    @property
    def previous_version(self) -> int | None:
        """Version number of the still-servable previous base, if any."""
        return self._previous_version

    def base_for_version(self, version: int) -> bytes | None:
        """The distributable base matching ``version`` (current or previous)."""
        if version == self.version and self._distributable is not None:
            return self._distributable
        if version == self._previous_version:
            return self._previous
        return None

    def integrity_ok(self, version: int) -> bool:
        """Whether the stored base for ``version`` still matches its
        promotion-time checksum (False = corrupted or absent)."""
        body = self.base_for_version(version)
        if body is None:
            return False
        expected = (
            self._checksum if version == self.version else self._previous_checksum
        )
        return expected is not None and checksum(body) == expected

    def quarantine(self) -> int:
        """Take every stored base out of service; returns bytes freed.

        Used when corruption or an encode failure is detected: the class
        stops serving deltas immediately, serves fulls, and re-adopts a
        fresh base (clearing the quarantine) on its next good fetch — so
        an engine fault costs one degraded response, never a 500.
        """
        self.quarantined = True
        return self.release_base()

    # -- index caching -----------------------------------------------------------

    def drop_previous(self) -> int:
        """Release the previous-generation base; returns bytes freed.

        Clients still holding the old version will get a full response on
        their next request and pick up the current base — the pre-graceful
        rebase behaviour, acceptable under storage pressure.
        """
        freed = len(self._previous or b"")
        self._previous = None
        self._previous_version = None
        self._previous_index = None
        self._previous_checksum = None
        return freed

    def release_base(self) -> int:
        """Release every base-file this class holds; returns bytes freed.

        The class survives (members, policy state, version counter) and
        re-adopts a base from the next request it serves — the storage-
        pressure escape hatch.  The version counter is NOT reset, so
        clients holding released generations are correctly detected as
        stale when the class comes back.
        """
        freed = self.drop_previous()
        freed += len(self._raw_base or b"")
        if self._distributable is not None and self._distributable is not self._raw_base:
            freed += len(self._distributable)
        self._raw_base = None
        self._distributable = None
        self._pending = None
        self._full_index = None
        self._light_index = None
        self._checksum = None
        self.base_signature = None
        self._sketch_base = None
        self.encode_cache.clear()
        return freed

    def restore_base(self, document: bytes, version: int, doc_checksum: int) -> None:
        """Rehydrate this class's base-file from the persistent store.

        The stored document is the *distributable* base (anonymization ran
        before it was ever committed), so it doubles as the raw base — no
        anonymization window reopens on restart.  The version counter
        resumes where the previous process stopped, so clients holding
        pre-restart base-files keep getting deltas.  The previous
        generation is not persisted; clients holding it get one full
        response and re-fetch.  Caller holds ``self.lock`` (or owns the
        class exclusively, as during warm restart).
        """
        self._raw_base = document
        self._distributable = document
        self.version = version
        self._checksum = doc_checksum
        self._pending = None
        self.quarantined = False
        self._previous = None
        self._previous_version = None
        self._previous_index = None
        self._previous_checksum = None
        self._full_index = None
        self._light_index = None
        self.base_signature = None
        self._sketch_base = None
        # The restored version number may collide with pre-restart cache
        # entries for different base bytes; never let them be confused.
        self.encode_cache.clear()

    @property
    def distributable_checksum(self) -> int | None:
        """Promotion-time adler32 of the current distributable base."""
        return self._checksum

    def full_index(self) -> BaseIndex:
        """Cached full-differ index over the distributable base."""
        if not self.can_serve_deltas:
            raise RuntimeError(f"class {self.class_id} has no distributable base")
        if self._full_index is None:
            assert self._distributable is not None
            self._full_index = self._encoder.index(self._distributable)
        return self._full_index

    def full_index_for(self, version: int) -> BaseIndex | None:
        """Cached index for a served base version (current or previous)."""
        if version == self.version:
            return self.full_index() if self.can_serve_deltas else None
        if version == self._previous_version and self._previous is not None:
            if self._previous_index is None:
                self._previous_index = self._encoder.index(self._previous)
            return self._previous_index
        return None

    def light_index(self) -> BaseIndex | None:
        """Cached light-estimator index over the best base for matching.

        Grouping compares documents against the distributable base when one
        exists (that is what deltas will be computed against) and falls back
        to the raw base during the initial anonymization window.
        """
        base = self._distributable if self.can_serve_deltas else self._raw_base
        if not base:
            return None
        if self._light_index is None or self._light_index.base is not base:
            self._light_index = self._estimator.index(base)
        return self._light_index

    def __repr__(self) -> str:
        return (
            f"DocumentClass(id={self.class_id!r}, key={self.key!r}, "
            f"members={len(self.members)}, version={self.version})"
        )
