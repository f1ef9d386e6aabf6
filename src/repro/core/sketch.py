"""Content sketches: MinHash signatures and the LSH candidate index.

The grouping search's scaling wall is candidate *selection*: with no
same-hint class to narrow the field, Section III's procedure falls back
to considering every same-server class, and even the probe-order sort is
O(classes) per request.  On a million-URL corpus that linear factor —
not the light estimator — dominates.  Related systems (Vcache's content
fingerprints, admission-by-similarity schemes) make selection cheap and
content-aware instead of exhaustive; this module is that front stage.

Two pieces:

* :class:`MinHashSketcher` — a per-document signature of ``bands × rows``
  32-bit slots, computed by *one-permutation hashing*: the document is
  shingled (overlapping byte windows), each shingle is hashed **once**
  with ``zlib.crc32``, the hash picks a slot, and the slot keeps the
  minimum hash it has seen.  Empty slots are densified by borrowing from
  the next non-empty slot (rotation), so short documents still produce a
  full signature.  One hash per shingle is what makes this affordable in
  pure Python — a classic k-permutation MinHash would cost ``num_perm``
  multiplies per shingle.  The expected fraction of equal slots between
  two signatures estimates the Jaccard similarity of the shingle sets.

* :class:`SketchIndex` — the LSH banding dictionary.  A signature is cut
  into ``bands`` groups of ``rows`` slots; each band hashes to a bucket
  key, and a class is registered under its current base's band keys.
  Two documents with shingle-set similarity ``j`` collide in at least
  one band with probability ``1 - (1 - j^rows)^bands`` — with the
  default 8×4 geometry a ``j = 0.9`` near-duplicate is recalled with
  probability ~0.9998 while a ``j = 0.3`` stranger slips through ~6% of
  the time, and every false positive is rejected by the light-estimate
  confirmation stage anyway.

Signatures are plain tuples of ints so they serialize into the store's
JSON journal unchanged; band keys are recomputed from the signature with
:func:`zlib.crc32` over packed bytes, which keeps them stable across
processes (no reliance on Python's randomized hashing).
"""

from __future__ import annotations

import struct
import threading
from zlib import crc32

__all__ = ["MinHashSketcher", "SketchIndex", "signature_similarity"]

#: sentinel above any 32-bit hash value (slot "empty" marker)
_EMPTY = 1 << 32


class MinHashSketcher:
    """One-permutation MinHash over byte shingles.

    ``shingle_size``/``shingle_step`` control the byte windows hashed
    (overlap = size - step); ``bands × rows`` fixes the signature width.
    The defaults are this build's one geometry: the engine's grouper and
    ``repro store verify`` both construct ``MinHashSketcher()``.
    A sketcher is immutable and thread-safe — :meth:`signature` touches
    only locals.
    """

    __slots__ = ("shingle_size", "shingle_step", "bands", "rows", "num_perm")

    def __init__(
        self,
        shingle_size: int = 16,
        shingle_step: int = 8,
        bands: int = 8,
        rows: int = 4,
    ) -> None:
        if shingle_size < 1:
            raise ValueError(f"shingle_size must be >= 1, got {shingle_size}")
        if shingle_step < 1:
            raise ValueError(f"shingle_step must be >= 1, got {shingle_step}")
        if bands < 1 or rows < 1:
            raise ValueError(f"bands and rows must be >= 1, got {bands}x{rows}")
        self.shingle_size = shingle_size
        self.shingle_step = shingle_step
        self.bands = bands
        self.rows = rows
        self.num_perm = bands * rows

    def signature(self, document: bytes) -> tuple[int, ...]:
        """The document's MinHash signature (``num_perm`` 32-bit ints).

        Deterministic for given bytes and sketcher geometry; the empty
        document gets the all-zero signature.
        """
        n = self.num_perm
        if not document:
            return (0,) * n
        mins = [_EMPTY] * n
        view = memoryview(document)
        size = self.shingle_size
        last = len(document) - size
        if last < 0:
            # Shorter than one shingle: hash the whole document.
            h = crc32(document)
            mins[h % n] = h
        else:
            for i in range(0, last + 1, self.shingle_step):
                h = crc32(view[i : i + size])
                slot = h % n
                if h < mins[slot]:
                    mins[slot] = h
        if _EMPTY in mins:
            self._densify(mins)
        return tuple(mins)

    @staticmethod
    def _densify(mins: list[int]) -> None:
        """Fill empty slots by rotation (borrow the next non-empty slot).

        Standard densification for one-permutation hashing: both
        documents borrow the same way, so borrowed slots still agree
        exactly when the underlying shingle sets do.
        """
        n = len(mins)
        # At least one slot is filled (callers hash >= 1 shingle).
        for i in range(n):
            if mins[i] != _EMPTY:
                continue
            for j in range(1, n):
                value = mins[(i + j) % n]
                if value != _EMPTY:
                    mins[i] = value
                    break

    def band_keys(self, signature: tuple[int, ...]) -> list[int]:
        """Stable bucket keys, one per band, derived from the signature."""
        rows = self.rows
        keys: list[int] = []
        for b in range(self.bands):
            chunk = signature[b * rows : (b + 1) * rows]
            # Salt with the band number so identical row values in
            # different bands never alias to one bucket.
            keys.append(crc32(struct.pack(f">{rows + 1}I", b, *chunk)))
        return keys


def signature_similarity(a: tuple[int, ...], b: tuple[int, ...]) -> float:
    """Estimated Jaccard similarity: the fraction of agreeing slots."""
    if len(a) != len(b) or not a:
        return 0.0
    return sum(1 for x, y in zip(a, b) if x == y) / len(a)


class SketchIndex:
    """LSH banding index: band bucket → ids of classes registered there.

    Thread-safe behind one internal lock; every operation is a handful
    of dict hits, so the lock is never held across I/O or hashing work
    (callers compute signatures *before* calling in).  Lock ordering:
    callers may hold a shard or class lock when calling in — the index
    never calls out, so no cycle is possible.
    """

    __slots__ = ("_sketcher", "_lock", "_buckets", "_registered")

    def __init__(self, sketcher: MinHashSketcher) -> None:
        self._sketcher = sketcher
        self._lock = threading.Lock()
        #: (band, key) → set of class ids
        self._buckets: dict[tuple[int, int], set[str]] = {}
        #: class id → the band keys it is currently registered under
        self._registered: dict[str, list[int]] = {}

    def register(self, class_id: str, signature: tuple[int, ...]) -> None:
        """(Re-)register a class under its base's signature bands.

        Idempotent; a class whose base changed is moved to its new
        buckets atomically with respect to lookups.
        """
        keys = self._sketcher.band_keys(signature)
        with self._lock:
            old = self._registered.get(class_id)
            if old == keys:
                return
            if old is not None:
                self._discard_locked(class_id, old)
            self._registered[class_id] = keys
            for band, key in enumerate(keys):
                self._buckets.setdefault((band, key), set()).add(class_id)

    def unregister(self, class_id: str) -> None:
        with self._lock:
            keys = self._registered.pop(class_id, None)
            if keys is not None:
                self._discard_locked(class_id, keys)

    def _discard_locked(self, class_id: str, keys: list[int]) -> None:
        for band, key in enumerate(keys):
            bucket = self._buckets.get((band, key))
            if bucket is None:
                continue
            bucket.discard(class_id)
            if not bucket:
                del self._buckets[(band, key)]

    def candidates(self, signature: tuple[int, ...]) -> list[str]:
        """Ids of classes sharing at least one band with ``signature``,
        ordered by the number of matching bands (best first) so the
        probe budget is spent on the most similar candidates."""
        keys = self._sketcher.band_keys(signature)
        matches: dict[str, int] = {}
        with self._lock:
            for band, key in enumerate(keys):
                for class_id in self._buckets.get((band, key), ()):
                    matches[class_id] = matches.get(class_id, 0) + 1
        if len(matches) <= 1:
            return list(matches)
        return sorted(matches, key=matches.__getitem__, reverse=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._registered)

    def bucket_count(self) -> int:
        with self._lock:
            return len(self._buckets)
