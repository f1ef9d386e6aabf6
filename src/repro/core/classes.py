"""Document classes: the unit of base-file sharing.

Under class-based delta-encoding "dynamic documents are grouped into
classes, and a single base-file is stored at the server per class"
(Section II).  A :class:`DocumentClass` owns:

* its membership (URLs grouped into it) and popularity counter, which the
  grouping search uses to order candidate classes;
* at most three :class:`Base` records: the *raw* base-file (chosen by the
  selection policy), the *current* distributable base-file (the anonymized
  version clients may hold) and the *previous* distributable generation,
  with a version number bumped on every promotion so stale client copies
  are detectable;
* its base-file selection policy and its :class:`RebaseController`, which
  :meth:`DocumentClass.ingest` runs on every fresh document (Section IV:
  each class has its own samples, incumbent, rebase timeout and drift
  trigger);
* its quarantine flag, the one record of whether it is out of delta
  service.

Everything derived from one base-file — its differ indexes, MinHash
signature, integrity checksum and encoded deltas — lives on that file's
record, so it is only ever used with exactly those bytes: a lifecycle
transition is a slot assignment, and whatever described the bytes that
left a slot leaves with them.

The two-stage base lifecycle implements Section V's rule that a base-file
"should not be distributed to clients" until anonymized, while "if there is
already an anonymized base-file and a rebase is triggered, the previous
base-file can be used until the new one is properly anonymized".
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.anonymize import AnonymizationState, Anonymizer
from repro.core.base_file import BaseFilePolicy
from repro.core.config import AnonymizationConfig, BaseFileConfig
from repro.core.rebase import RebaseController
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
    """LRU of finished deltas against one base-file, bounded by bytes.

    Popular classes see the same (base, document) pair repeatedly — every
    member URL rendering the same snapshot, every concurrent client holding
    the current base — and the encode+compress is by far the most expensive
    stage of such a request.  One entry memoizes the finished artifact,
    ``(wire_size, compressed_payload)``, under the SHA-256 digest of the
    document it reconstructs.

    Safety: a hit can never serve another document's delta.  The cache
    hangs off one :class:`Base` record, so the base bytes are fixed by
    construction (and pinned by the record's promotion-time integrity
    checksum: corruption quarantines, which drops the record); the key is a
    collision-resistant digest of the document bytes.  A 32-bit checksum
    would not do: two users' personalized pages can share an Adler-32, and
    the client's own Adler-32 check would accept the other user's page.

    Bound: the payloads held never sum past ``limit`` bytes, evicting least
    recently used first, and a payload larger than ``limit`` is not kept.
    :class:`Base` passes its body's length, so a record's deltas never
    outweigh the record.

    The cache has its own lock so the engine's off-lock encode path can
    consult it without touching the class lock.
    """

    __slots__ = ("limit", "held", "_entries", "_lock")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        #: payload bytes currently held, at most ``limit``
        self.held = 0
        self._entries: OrderedDict[bytes, tuple[int, bytes]] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, digest: bytes) -> tuple[int, bytes] | None:
        """Cached ``(wire_size, payload)`` for the document, refreshing recency."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
            return entry

    def put(self, digest: bytes, wire_size: int, payload: bytes) -> None:
        with self._lock:
            replaced = self._entries.pop(digest, None)
            if replaced is not None:
                self.held -= len(replaced[1])
            if len(payload) > self.limit:
                return
            self._entries[digest] = (wire_size, payload)
            self.held += len(payload)
            while self.held > self.limit:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.held -= len(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.held = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Base:
    """One base-file and everything derived from exactly its bytes.

    ``version`` and ``checksum`` are set when the record is promoted to
    distributable (a raw base awaiting anonymization has neither).  The
    differ indexes are built on first use; ``signature`` is the MinHash
    sketch the grouper registers for the record while it is the class's
    match base (see :attr:`DocumentClass.match_base`).  ``deltas`` holds
    finished deltas against the body, never more bytes of them than the
    body itself.
    """

    __slots__ = ("body", "version", "checksum", "signature", "deltas", "_full", "_light")

    def __init__(
        self, body: bytes, signature: "tuple[int, ...] | None" = None
    ) -> None:
        self.body = body
        self.version: int | None = None
        self.checksum: int | None = None
        self.signature = signature
        self.deltas = EncodeCache(len(body))
        self._full: BaseIndex | None = None
        self._light: BaseIndex | None = None

    def full_index(self, encoder: VdeltaEncoder) -> BaseIndex:
        if self._full is None:
            self._full = encoder.index(self.body)
        return self._full

    def light_index(self, estimator: LightEstimator) -> BaseIndex:
        if self._light is None:
            self._light = estimator.index(self.body)
        return self._light

    def intact(self) -> bool:
        """Whether the bytes still match the promotion-time checksum."""
        return self.checksum is not None and checksum(self.body) == self.checksum


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
        rebase: RebaseController | None = None,
        created_at: float = 0.0,
    ) -> None:
        self.class_id = class_id
        self.server = server
        self.hint = hint
        self.created_at = created_at
        self.policy = policy
        #: the class's own rebase triggers (delta-ratio EWMA, timeout)
        self.rebase = rebase or RebaseController(BaseFileConfig())
        self.stats = ClassStats()
        self.members: set[str] = set()
        self.last_rebase_at = created_at

        # The sharded engine's unit of mutual exclusion: every mutation of
        # class state (membership, base lifecycle, policy samples, rebase
        # state, index caches) happens under this lock, taken by the
        # engine/grouper — the methods below do not take it themselves, so
        # lock-holding callers can compose them freely.  Reentrant because
        # composite operations (ingest → rebase → adopt) nest helper calls.
        self.lock = threading.RLock()

        self._anon_config = anonymization
        self._encoder = encoder

        # The three base-file slots (module docstring).  Invariant: a held
        # ``current`` carries ``self.version``; ``previous`` is only held
        # beside a ``current``.  ``raw is current`` when the adopted bytes
        # were distributable as-is (anonymization off, warm restart).
        self.raw: Base | None = None
        self.current: Base | None = None
        # One previous distributable generation is kept live so clients
        # holding it keep receiving deltas across a rebase instead of
        # falling back to full responses while they re-fetch the new base.
        self.previous: Base | None = None
        self.version = 0
        self._pending: Anonymizer | None = None
        # The document that founded this class, pre-sketched by the grouper
        # (see presketch).
        self._founding: Base | None = None

        # Self-healing: every distributable base is checksummed on
        # promotion so storage corruption is detected before a delta is
        # computed against rotten bytes; a quarantined class serves fulls
        # until it re-adopts a fresh base from the next good fetch.
        self.quarantined = False

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

    def presketch(self, document: bytes, signature: "tuple[int, ...]") -> None:
        """Hand over the signature the grouper computed for the document
        that founded this class: adopting that same document starts its
        record with it, so the founding base is never sketched twice."""
        self._founding = Base(document, signature)

    @property
    def match_base(self) -> Base | None:
        """The record grouping compares documents against.

        The distributable base when one exists (that is what deltas will
        be computed against), else the raw base during the initial
        anonymization window.
        """
        return self.current if self.can_serve_deltas else self.raw

    # -- base-file lifecycle ---------------------------------------------------

    @property
    def can_serve_deltas(self) -> bool:
        return (
            not self.quarantined
            and self.current is not None
            and len(self.current.body) > 0
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
        founding, self._founding = self._founding, None
        if founding is not None and founding.body is document:
            self.raw = founding
        else:
            self.raw = Base(document)
        self.quarantined = False
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

    def ingest(self, document: bytes, user_id: str | None, now: float) -> str | None:
        """Run one fresh origin document through the class's lifecycle.

        The selection policy samples it.  A base-less class (new, released
        or quarantined) adopts it as its base-file; otherwise it feeds any
        pending anonymization and then the rebase policy decides.  Returns
        what happened: ``"recovered"`` (a quarantined class re-adopted),
        ``"basic"`` or ``"group"`` (a rebase), or None.  Caller holds
        ``self.lock``.
        """
        self.policy.observe(document, user_id)
        if self.raw is None:
            # The class is born with this response as its base-file (the
            # simplest scheme); a storage-released or quarantined class
            # re-adopts the same way.  The policy may replace it later.
            recovered = self.quarantined
            self.adopt_base(document, owner_user=user_id, now=now)
            return "recovered" if recovered else None
        self.feed(document, user_id)
        if self.anonymization_pending:
            # A rebase is already in flight (its base is being anonymized);
            # re-triggering would restart the user-collection window forever
            # and the class would never finish a transition.
            return None
        decision = self.rebase.check(
            self.policy, self.raw.body, document, now, self.last_rebase_at
        )
        if decision is None:
            return None
        if decision.kind == "basic":
            # "When a basic-rebase takes place, all K stored documents are
            # flushed."
            self.policy.flush()
            self.adopt_base(decision.new_base, owner_user=user_id, now=now)
            self.stats.basic_rebases += 1
        else:
            owner = self.policy.current_owner()
            self.adopt_base(decision.new_base, owner_user=owner, now=now)
            self.stats.group_rebases += 1
        self.rebase.reset()
        return decision.kind

    def _promote(self, anonymizer: Anonymizer) -> None:
        anonymized = anonymizer.anonymized
        assert anonymized is not None and self.raw is not None
        base = self.raw if anonymized is self.raw.body else Base(anonymized)
        self.version += 1
        base.version = self.version
        base.checksum = checksum(anonymized)
        for demoted in (self.raw, self.current):
            if demoted is not None and demoted is not base:
                # No longer probed by grouping: free its light index now
                # rather than when the record itself goes.
                demoted._light = None
        self.previous, self.current = self.current, base
        self._pending = None

    def servable(self, version: int) -> Base | None:
        """The distributable record published as ``version``, if still held."""
        for base in (self.current, self.previous):
            if base is not None and base.version == version:
                return base
        return None

    def bases(self) -> list[Base]:
        """The distinct records this class holds (raw may be current)."""
        held: list[Base] = []
        for base in (self.raw, self.current, self.previous):
            if base is not None and base not in held:
                held.append(base)
        return held

    def quarantine(self) -> int:
        """Take every stored base out of service; returns bytes freed.

        Used when corruption or an encode failure is detected: the class
        stops serving deltas immediately, serves fulls, and re-adopts a
        fresh base (clearing the quarantine) on its next good fetch — so
        an engine fault costs one degraded response, never a 500.
        """
        self.quarantined = True
        return self.release_base()

    def drop_previous(self) -> int:
        """Release the previous-generation base; returns bytes freed.

        Clients still holding the old version will get a full response on
        their next request and pick up the current base — the pre-graceful
        rebase behaviour, acceptable under storage pressure.
        """
        freed = len(self.previous.body) if self.previous is not None else 0
        self.previous = None
        return freed

    def release_base(self) -> int:
        """Release every base-file this class holds; returns bytes freed.

        The class survives (members, policy state, version counter) and
        re-adopts a base from the next request it serves — the storage-
        pressure escape hatch.  The version counter is NOT reset, so
        clients holding released generations are correctly detected as
        stale when the class comes back.
        """
        freed = sum(len(base.body) for base in self.bases())
        self.raw = self.current = self.previous = None
        self._pending = None
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
        base = Base(document)
        base.version = version
        base.checksum = doc_checksum
        self.raw = self.current = base
        self.previous = None
        self.version = version
        self._pending = None
        self.quarantined = False

    def __repr__(self) -> str:
        return (
            f"DocumentClass(id={self.class_id!r}, key={self.key!r}, "
            f"members={len(self.members)}, version={self.version})"
        )
