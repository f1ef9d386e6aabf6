"""The paper's "light" delta estimator used during grouping.

Section III, footnote 2:

    "Since for grouping purposes it is not required to generate a precise
    delta between the requested document and the base-file of a candidate
    class, but rather to estimate how close they are, a light version of the
    delta algorithm is used to reduce computation cost. ... We use a light
    version of this algorithm that uses larger byte-chunks and only
    traverses the file in the forward direction."

:class:`LightEstimator` wraps a :class:`~repro.delta.vdelta.VdeltaEncoder`
configured with larger chunks, sampled indexing, and no backward extension.
It reports an *estimated* delta size — good enough to rank candidate
classes, several times cheaper than the full differ.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.delta.vdelta import BaseIndex, VdeltaEncoder


@dataclass(slots=True)
class LightEstimator:
    """Cheap closeness estimator between a document and a base-file.

    Parameters
    ----------
    chunk_size:
        Larger than the full differ's 4 bytes; 16 by default.
    step:
        Index every ``step``-th base position only.
    index_cache_size:
        Light indexes are memoized per base-file (keyed by length +
        adler32), because the same documents are estimated against
        repeatedly — grouping probes every class base.  Base-file admission
        remembers each (base, target) size itself
        (:meth:`RandomizedPolicy._measure
        <repro.core.base_file.RandomizedPolicy._measure>`), so this memo
        serves only its misses.  Estimates tolerate the astronomically
        unlikely checksum collision; the *full* encoder deliberately has no
        such cache.

    One estimator is shared by the whole sharded engine (every class, every
    shard), so the LRU bookkeeping is guarded by a lock.  The expensive
    part — building an index on a miss — deliberately runs *outside* the
    lock: two racing misses for one base both build, one insert wins, and
    the loser's index is garbage-collected; that beats serializing every
    cross-shard probe behind one index build.
    """

    chunk_size: int = 16
    step: int = 8
    index_cache_size: int = 64
    _encoder: VdeltaEncoder = field(init=False, repr=False)
    _cache: "OrderedDict[tuple[int, int], BaseIndex]" = field(
        init=False, repr=False, default_factory=OrderedDict
    )
    _cache_lock: threading.Lock = field(
        init=False, repr=False, default_factory=threading.Lock
    )

    def __post_init__(self) -> None:
        self._encoder = VdeltaEncoder(
            chunk_size=self.chunk_size,
            min_match=self.chunk_size,
            backward=False,
            step=self.step,
            max_candidates=4,
        )

    def index(self, base: bytes) -> BaseIndex:
        """Return a (memoized) light index for a base-file."""
        key = (len(base), zlib.adler32(base))
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
        built = self._encoder.index(base)
        with self._cache_lock:
            # A racing miss may have inserted first; keep its entry (either
            # index is equivalent) and just refresh recency.
            existing = self._cache.get(key)
            if existing is not None:
                self._cache.move_to_end(key)
                return existing
            self._cache[key] = built
            while len(self._cache) > self.index_cache_size:
                self._cache.popitem(last=False)
        return built

    def estimate(self, base: bytes, target: bytes) -> int:
        """Estimated (uncompressed) delta size in bytes."""
        return self.estimate_with_index(self.index(base), target)

    def estimate_with_index(self, index: BaseIndex, target: bytes) -> int:
        """Estimated delta size against a prebuilt light index.

        Runs the streaming wire kernel and measures the output directly —
        the wire length *is* the old ``encoded_size(instructions, ...)``
        value, without materializing an instruction list first.
        """
        return len(self._encoder.encode_wire_with_index(index, target))
