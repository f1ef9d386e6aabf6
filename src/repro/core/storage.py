"""Server-side base-file storage accounting and budget enforcement.

The paper's whole motivation is that classic delta-encoding "suffers from
enormous storage requirements on the server-side".  Class-based encoding
shrinks the requirement by orders of magnitude, but a production
delta-server still wants a hard budget: this module tracks what each
class pins — the *live* in-memory base-files (raw + distributable +
previous generation) **and**, when the persistent store is wired in, the
*history* each class keeps on disk as bounded delta chains — and, when a
budget is set, reclaims space in stages, cheapest consequence first:

0. evict cold classes' on-disk *history* (all chain entries behind the
   latest version; the latest is re-rooted as a full snapshot so warm
   restart still works — only point-in-time recovery of old versions is
   lost);
1. drop *previous-generation* bases (they only smooth rebase transitions;
   clients holding them fall back to a full response + re-fetch);
2. release the base-files of the least popular classes entirely — the
   class survives (membership, policy samples) and re-adopts a base from
   the next request it sees, paying one anonymization warm-up.  The
   release is journaled so a crash-restart does not resurrect the bytes.

After a pass that evicted history, the pack is compacted when its
garbage fraction crosses ``compact_garbage_ratio`` — evicted bytes only
become free disk space at compaction.

Concurrency: at most one enforcement pass runs at a time (an internal
manager lock — also what keeps the reclaim counters exact), and every
per-class read or release happens under that class's own lock, one class
at a time.  The manager never holds two class locks at once and callers
must not hold *any* class lock while invoking :meth:`StorageManager.enforce`,
which together rule out lock-ordering deadlocks with the sharded engine's
request pipeline.  Calls into the engine's :class:`~repro.store.Store`
(passed as ``store=``) take the store's own lock *after* the class lock —
the direction the engine's base commit uses too, so the ordering stays
acyclic.  A class released mid-flight is caught by the
engine's delta-commit revalidation (the snapshot version is gone → full
response).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.classes import DocumentClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.store.store import Store

#: compact the pack once this fraction of its payload bytes is garbage
DEFAULT_COMPACT_GARBAGE_RATIO = 0.5


@dataclass(slots=True)
class StorageStats:
    """Budget-manager accounting.

    ``live_bytes`` / ``history_bytes`` are the split measured by the most
    recent :meth:`StorageManager.usage` call (enforcement refreshes them):
    live is what classes pin in memory, history is what their on-disk
    delta chains pin in the pack.
    """

    budget_bytes: int | None = None
    previous_drops: int = 0
    base_releases: int = 0
    history_evictions: int = 0
    compactions: int = 0
    live_bytes: int = 0
    history_bytes: int = 0

    @property
    def enforced(self) -> bool:
        return self.budget_bytes is not None

    @property
    def used_bytes(self) -> int:
        return self.live_bytes + self.history_bytes


def class_storage_bytes(cls: DocumentClass) -> int:
    """Bytes this class pins on the server (raw + distributable + previous).

    Callers that may race class mutation must hold ``cls.lock``.
    """
    return sum(len(base.body) for base in cls.bases())


class StorageManager:
    """Enforces a base-file storage budget across a set of classes."""

    def __init__(
        self,
        budget_bytes: int | None = None,
        *,
        store: "Store | None" = None,
        compact_garbage_ratio: float = DEFAULT_COMPACT_GARBAGE_RATIO,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be > 0, got {budget_bytes}")
        self.stats = StorageStats(budget_bytes=budget_bytes)
        self._store = store
        self._compact_garbage_ratio = compact_garbage_ratio
        self._lock = threading.Lock()

    def total_bytes(self, classes: list[DocumentClass]) -> int:
        """Current storage across ``classes`` — in-memory *and* on-disk."""
        live, history = self.usage(classes)
        return live + history

    def usage(self, classes: list[DocumentClass]) -> tuple[int, int]:
        """Measure (and record) the live / history storage split."""
        live = 0
        for cls in classes:
            with cls.lock:
                live += class_storage_bytes(cls)
        store = self._store
        history = store.live_pack_bytes if store is not None else 0
        self.stats.live_bytes = live
        self.stats.history_bytes = history
        return live, history

    def enforce(
        self, classes: list[DocumentClass], protect: DocumentClass | None = None
    ) -> int:
        """Reclaim space until within budget; returns bytes reclaimed.

        ``protect`` (typically the class serving the current request) is
        never released, though its history and previous generation may
        still be reclaimed.  Do not call while holding any class lock.
        """
        budget = self.stats.budget_bytes
        if budget is None:
            return 0
        with self._lock:
            used = self.total_bytes(classes)
            if used <= budget:
                return 0
            reclaimed = 0
            by_coldness = sorted(classes, key=lambda c: c.popularity)
            store = self._store

            # Stage 0: on-disk history of the coldest classes.  Cheapest
            # loss — the latest version survives (re-rooted full), only
            # older chain entries go.
            if store is not None:
                evicted_any = False
                for cls in by_coldness:
                    if used - reclaimed <= budget:
                        break
                    freed = store.evict_history(cls.class_id)
                    if freed:
                        reclaimed += freed
                        self.stats.history_evictions += 1
                        evicted_any = True
                if (
                    evicted_any
                    and store.garbage_ratio() >= self._compact_garbage_ratio
                ):
                    store.compact()
                    self.stats.compactions += 1
                if used - reclaimed <= budget:
                    self.usage(classes)
                    return reclaimed

            # Stage 1: previous generations, coldest classes first.
            for cls in by_coldness:
                if used - reclaimed <= budget:
                    self.usage(classes)
                    return reclaimed
                with cls.lock:
                    freed = cls.drop_previous()
                if freed:
                    reclaimed += freed
                    self.stats.previous_drops += 1

            # Stage 2: whole base-files of the least popular classes.
            for cls in by_coldness:
                if used - reclaimed <= budget:
                    break
                if cls is protect:
                    continue
                with cls.lock:
                    freed = cls.release_base()
                    if freed and store is not None:
                        # Journal the release so a crash-restart does not
                        # resurrect bytes the budget just reclaimed (the
                        # store's chain for this class becomes garbage,
                        # which also counts as reclaimed space).
                        freed += store.class_disk_bytes(cls.class_id)
                        store.release(cls.class_id)
                if freed:
                    reclaimed += freed
                    self.stats.base_releases += 1
            self.usage(classes)
            return reclaimed
