"""The paper's contribution: class-based delta-encoding.

Public surface:

* :class:`DeltaServer` — the engine (grouping + base-file selection +
  anonymization + rebases + delta responses);
* configuration dataclasses (:class:`DeltaServerConfig` and friends);
* the base-file selection policies of Table III;
* :class:`Anonymizer` for standalone use of the Section V mechanism.
"""

from __future__ import annotations

from repro.core.anonymize import AnonymizationState, Anonymizer
from repro.core.base_file import (
    BaseFilePolicy,
    FirstResponsePolicy,
    OnlineOptimalPolicy,
    RandomizedPolicy,
    make_policy,
    offline_best,
)
from repro.core.classes import ClassStats, DocumentClass
from repro.core.config import (
    AnonymizationConfig,
    BaseFileConfig,
    DeltaServerConfig,
    EvictionVariant,
    GroupingConfig,
)
from repro.core.counters import StripedCounters
from repro.core.delta_server import BASE_FILE_SEGMENT, DeltaServer, ServerStats
from repro.core.grouping import Grouper, GroupingStats
from repro.core.rebase import RebaseController, RebaseDecision
from repro.core.storage import StorageManager, StorageStats, class_storage_bytes

__all__ = [
    "AnonymizationConfig",
    "AnonymizationState",
    "Anonymizer",
    "BASE_FILE_SEGMENT",
    "BaseFileConfig",
    "BaseFilePolicy",
    "ClassStats",
    "DeltaServer",
    "DeltaServerConfig",
    "DocumentClass",
    "EvictionVariant",
    "FirstResponsePolicy",
    "Grouper",
    "GroupingConfig",
    "GroupingStats",
    "OnlineOptimalPolicy",
    "RandomizedPolicy",
    "RebaseController",
    "RebaseDecision",
    "ServerStats",
    "StorageManager",
    "StorageStats",
    "StripedCounters",
    "class_storage_bytes",
    "make_policy",
    "offline_best",
]
