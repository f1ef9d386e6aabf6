"""Configuration for the class-based delta-encoding engine.

Defaults follow the paper's own choices where it states them:

* grouping tries ``N`` "less than 10", popularity split ``a`` (Section III);
* randomized base-file selection with ``K`` samples ("values of K around 10
  are enough", Table III uses 8) and sampling probability ``p`` (Table III
  uses 0.2);
* anonymization levels ``(M, N)`` with the rule of thumb "N should be at
  least twice as large as M" (Section V).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.delta.codec import DEFAULT_MAX_TARGET_LENGTH

#: Documents smaller than this are served directly; the delta machinery
#: is not worth its overhead on tiny responses.
MIN_DOCUMENT_BYTES = 256


class EvictionVariant(enum.Enum):
    """Eviction options for the randomized base-file algorithm (Sec. IV fn. 3)."""

    WORST = "worst"  # always evict the max-sum-of-deltas document
    PERIODIC_RANDOM = "periodic_random"  # periodically evict a random non-base
    TWO_SET = "two_set"  # candidate set + independent reference-sample set


@dataclass(frozen=True, slots=True)
class GroupingConfig:
    """Knobs of the grouping mechanism (paper Section III)."""

    #: A matching occurs when the (estimated) delta is below this fraction
    #: of the document size.
    match_threshold: float = 0.15
    #: Maximum classes probed per request ("never considers more than N").
    max_tries: int = 8
    #: Fraction ``a`` of tries spent on the most popular classes; the rest
    #: are random picks among the remaining eligible classes.
    popular_fraction: float = 0.5
    #: Stop at the first matching class (the paper's preferred option)
    #: instead of probing all ``max_tries`` and picking the best match.
    first_match: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.match_threshold <= 1:
            raise ValueError(f"match_threshold must be in (0, 1], got {self.match_threshold}")
        if self.max_tries < 1:
            raise ValueError(f"max_tries must be >= 1, got {self.max_tries}")
        if not 0 <= self.popular_fraction <= 1:
            raise ValueError(f"popular_fraction must be in [0, 1], got {self.popular_fraction}")


@dataclass(frozen=True, slots=True)
class BaseFileConfig:
    """Knobs of base-file selection and rebasing (paper Section IV)."""

    #: Sampling probability ``p``: each response becomes a candidate with
    #: this probability.
    sample_probability: float = 0.2
    #: Candidate store capacity ``K``.
    capacity: int = 8
    eviction: EvictionVariant = EvictionVariant.WORST
    #: For PERIODIC_RANDOM: every this many evictions, evict a random
    #: stored document (excluding the current base-file) instead of the worst.
    random_evict_period: int = 4
    #: Minimum simulated seconds between group-rebases.  Rebasing is
    #: expensive for clients (their cached base-file is invalidated) and
    #: restarts anonymization, so the default is deliberately long.
    rebase_timeout: float = 1800.0
    #: A group-rebase requires the challenger to beat the incumbent's mean
    #: delta by this factor (hysteresis; 1.0 rebases on any improvement).
    improvement_factor: float = 1.25
    #: Basic-rebase trigger: smoothed delta/document size ratio above this
    #: means the base-file has drifted badly and is replaced outright.
    basic_rebase_ratio: float = 0.5
    #: EWMA weight for the smoothed delta-size ratio.
    ratio_smoothing: float = 0.25

    def __post_init__(self) -> None:
        if not 0 < self.sample_probability <= 1:
            raise ValueError(
                f"sample_probability must be in (0, 1], got {self.sample_probability}"
            )
        if self.capacity < 2:
            raise ValueError(f"capacity must be >= 2, got {self.capacity}")
        if self.improvement_factor < 1:
            raise ValueError(
                f"improvement_factor must be >= 1, got {self.improvement_factor}"
            )


@dataclass(frozen=True, slots=True)
class AnonymizationConfig:
    """Knobs of base-file anonymization (paper Section V)."""

    enabled: bool = True
    #: ``N``: documents from distinct users compared against the base-file.
    #: The default matches Table IV's (M=2, N=5) row; until N distinct
    #: users have visited a class its base-file cannot be distributed, so
    #: large N delays delta service on unpopular classes.
    documents: int = 5
    #: ``M``: a byte-chunk survives only if common with at least M of them.
    min_count: int = 2

    def __post_init__(self) -> None:
        if self.enabled:
            if self.documents < 1:
                raise ValueError(f"documents must be >= 1, got {self.documents}")
            if not 1 <= self.min_count <= self.documents:
                raise ValueError(
                    f"min_count must be in [1, documents], got {self.min_count}"
                )


@dataclass(frozen=True, slots=True)
class DeltaServerConfig:
    """Top-level configuration of a :class:`~repro.core.delta_server.DeltaServer`."""

    grouping: GroupingConfig = field(default_factory=GroupingConfig)
    base_file: BaseFileConfig = field(default_factory=BaseFileConfig)
    anonymization: AnonymizationConfig = field(default_factory=AnonymizationConfig)
    #: Documents larger than this are served directly too — it bounds what
    #: the engine will index/encode, and it is the decode-side
    #: ``max_target_length`` bound clients and proxies enforce against
    #: hostile payloads (see :data:`repro.delta.codec.DEFAULT_MAX_TARGET_LENGTH`).
    max_document_bytes: int = DEFAULT_MAX_TARGET_LENGTH
    #: Hard server-side budget for base-file storage (None = unlimited).
    #: Under pressure, previous-generation bases are dropped first, then
    #: whole base-files of the coldest classes (see repro.core.storage).
    storage_budget_bytes: int | None = None
    #: Deterministic seed for all randomized components.
    seed: int = 2002

    def __post_init__(self) -> None:
        if self.max_document_bytes < MIN_DOCUMENT_BYTES:
            raise ValueError(
                f"max_document_bytes ({self.max_document_bytes}) must be >= "
                f"MIN_DOCUMENT_BYTES ({MIN_DOCUMENT_BYTES})"
            )
