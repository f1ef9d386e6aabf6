"""Persistent pack/journal storage tier (ROADMAP item 2).

Layout of a state directory, the crash-safety contract, chain encoding
and compaction are documented on :mod:`repro.store.store`.  The engine
(:class:`repro.core.delta_server.DeltaServer`) holds a :class:`Store`
and calls it directly at each lifecycle point; its warm restart rebuilds
classes from :meth:`Store.classes`.
"""

from __future__ import annotations

from repro.store.format import StoreFormatError
from repro.store.journal import Journal, scan_journal
from repro.store.pack import Pack, PackCorruptionError
from repro.store.store import (
    DEFAULT_SNAPSHOT_EVERY,
    HIT_JOURNAL_STRIDE,
    ClassState,
    PackEntry,
    Store,
    StoreError,
    StoreStats,
    inspect_state_dir,
    verify_state_dir,
)

__all__ = [
    "DEFAULT_SNAPSHOT_EVERY",
    "HIT_JOURNAL_STRIDE",
    "ClassState",
    "Journal",
    "Pack",
    "PackCorruptionError",
    "PackEntry",
    "Store",
    "StoreError",
    "StoreFormatError",
    "StoreStats",
    "inspect_state_dir",
    "scan_journal",
    "verify_state_dir",
]
