"""Engine↔store glue: lifecycle hooks and the warm-restart path.

The engine never imports :class:`repro.store.store.Store` directly — it
talks to a :class:`StoreHooks`, whose base class is a pile of no-ops.
Running without ``--state-dir`` therefore costs nothing (no branch even
allocates), and every store call site in the engine stays unconditional.

:class:`PersistentStoreHooks` forwards the hook points to a real store:

* ``class_created`` / ``member_added`` — buffered journal appends;
* ``class_hit`` — throttled popularity checkpoints (one buffered record
  per :data:`HIT_JOURNAL_STRIDE` hits), so the popular-first probe order
  survives restarts;
* ``base_committed`` — the fsync'd crash-safe commit (called under the
  class lock, after the in-memory version bump); carries the base's
  MinHash signature so restarts skip re-sketching;
* ``class_quarantined`` / ``base_released`` — payload drops;
* ``rehydrate(engine)`` — the warm-restart path: rebuild classes, url→
  class mappings and latest base-file versions into a fresh engine from
  disk, without touching any origin.

Lock ordering: hooks are invoked while holding engine-side locks
(shard/class/storage-manager); the store takes only its own lock and
never calls back into the engine, so the ordering is acyclic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.store.pack import PackCorruptionError
from repro.store.store import Store, StoreError, _class_sort

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.delta_server import DeltaServer


class StoreHooks:
    """No-op hooks: the engine's default when persistence is off."""

    store: Store | None = None

    def class_created(self, class_id: str, server: str, hint: str) -> None:
        pass

    def member_added(self, class_id: str, url: str) -> None:
        pass

    def class_hit(self, class_id: str, hits: int) -> None:
        pass

    def base_committed(
        self,
        class_id: str,
        version: int,
        document: bytes,
        doc_checksum: int,
        signature: "tuple[int, ...] | None" = None,
    ) -> None:
        pass

    def class_quarantined(self, class_id: str, cause: str) -> None:
        pass

    def base_released(self, class_id: str) -> None:
        pass

    def rehydrate(self, engine: "DeltaServer") -> int:
        """Rebuild engine state from disk; returns classes restored."""
        return 0

    def snapshot(self) -> dict | None:
        """Store stats for health/metrics surfaces (None when no store)."""
        return None

    def close(self) -> None:
        pass


#: journal a hit-count checkpoint every this many hits per class — the
#: trade between journal growth (one tiny record per stride) and how much
#: popularity-ordering accuracy a crash can cost (at most stride-1 hits)
HIT_JOURNAL_STRIDE = 16


class PersistentStoreHooks(StoreHooks):
    """Forward engine lifecycle events into a :class:`Store`."""

    def __init__(self, store: Store, hit_stride: int = HIT_JOURNAL_STRIDE) -> None:
        self.store = store
        self.hit_stride = max(int(hit_stride), 1)

    def class_created(self, class_id: str, server: str, hint: str) -> None:
        self.store.add_class(class_id, server, hint)

    def member_added(self, class_id: str, url: str) -> None:
        self.store.add_member(class_id, url)

    def class_hit(self, class_id: str, hits: int) -> None:
        # Fired per request on the grouper's fast path: the stride check
        # must stay one modulo, journaling only every Nth hit.
        if hits % self.hit_stride == 0:
            self.store.record_hits(class_id, hits)

    def base_committed(
        self,
        class_id: str,
        version: int,
        document: bytes,
        doc_checksum: int,
        signature: "tuple[int, ...] | None" = None,
    ) -> None:
        self.store.commit_base(
            class_id, version, document, doc_checksum, signature=signature
        )

    def class_quarantined(self, class_id: str, cause: str) -> None:
        self.store.quarantine(class_id, cause)

    def base_released(self, class_id: str) -> None:
        self.store.release(class_id)

    def rehydrate(self, engine: "DeltaServer") -> int:
        """Warm restart: rebuild classes, memberships and latest bases.

        Classes are restored in numeric id order so the engine's class-id
        counter can be re-seeded past the highest one.  A class whose
        on-disk chain fails materialization (checksum mismatch, torn
        frame) is restored *base-less* — it re-adopts from its next
        origin fetch rather than ever serving damaged bytes.
        """
        restored = 0
        states = sorted(self.store.classes(), key=lambda st: _class_sort(st.class_id))
        for state in states:
            cls = engine.restore_class(state.class_id, state.server, state.hint)
            if cls is None:
                continue
            # Base first, grouper second: registration consults the
            # restored base when re-sketching a class whose signature was
            # never persisted (or was sketched with another geometry).
            if state.latest is not None:
                entry = state.entries.get(state.latest)
                try:
                    document = self.store.materialize(state.class_id, state.latest)
                except (StoreError, PackCorruptionError):
                    pass
                else:
                    cls.restore_base(document, state.latest, entry.doc_checksum)
            engine.grouper.restore_class(
                cls,
                state.members,
                hits=state.hits,
                signature=tuple(state.sketch) if state.sketch else None,
            )
            restored += 1
        engine.seed_class_counter(state.class_id for state in states)
        self.store.stats.rehydrated_classes = restored
        return restored

    def snapshot(self) -> dict | None:
        return self.store.snapshot()

    def close(self) -> None:
        self.store.close()
