"""Persistent pack/journal storage tier (ROADMAP item 2).

Layout of a state directory, the crash-safety contract, chain encoding
and compaction are documented on :mod:`repro.store.store`; the engine
integration surface is :mod:`repro.store.hooks`.
"""

from __future__ import annotations

from repro.store.format import StoreFormatError
from repro.store.hooks import PersistentStoreHooks, StoreHooks
from repro.store.journal import Journal, scan_journal
from repro.store.pack import Pack, PackCorruptionError
from repro.store.store import (
    DEFAULT_SNAPSHOT_EVERY,
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
    "ClassState",
    "Journal",
    "Pack",
    "PackCorruptionError",
    "PackEntry",
    "PersistentStoreHooks",
    "Store",
    "StoreError",
    "StoreFormatError",
    "StoreHooks",
    "StoreStats",
    "inspect_state_dir",
    "scan_journal",
    "verify_state_dir",
]
