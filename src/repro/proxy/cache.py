"""LRU object cache honouring response cachability.

The substrate for the proxy-cache in Fig. 2.  Only responses explicitly
marked cachable are stored — which, in this system, means base-files: the
dynamic documents themselves remain uncachable, and *that* is why plain
proxy caching tops out around 40 % hit rates (paper Section I) while the
delta-server recovers the redundancy anyway.

Semantics:

* **byte-budgeted LRU** — entries are charged their body size; inserts
  that push past ``capacity_bytes`` evict from the least-recent end.
* **TTL expiry** — with a ``ttl``, entries older than it stop being
  fresh: :meth:`lookup` reports them stale so the proxy can revalidate
  against the upstream's body checksum (a confirmed revalidation calls
  :meth:`refresh`), and :meth:`get` treats them as misses.
* **full accounting** — every lookup lands in ``hits`` or ``misses``
  (``hit_rate`` is over *all* lookups), rejected ``put``s are
  distinguishable from accepted ones (``rejections``), and explicit
  drops are counted (``invalidations``), so ``size_bytes`` and the
  counters stay provably consistent under arbitrary op interleavings.
* **thread-safe** — one lock around every operation; the live proxy's
  event loop and any background sweepers share one instance.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.http.messages import Response
from repro.metrics.stats import counter


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting for one cache.

    Invariants (all enforced by tests):

    * ``hits + misses`` counts every lookup, including expired entries
      (counted in both ``expirations`` and ``misses``) and non-GET
      bypasses recorded via :meth:`LRUCache.note_bypass`.
    * live entries == ``insertions - replacements - evictions -
      invalidations``.
    * a ``put`` either increments ``insertions`` (returning ``True``) or
      ``rejections`` (returning ``False``) — never neither.
    """

    hits: int = counter("fresh cache hits")
    misses: int = counter("lookups that needed the upstream")
    insertions: int = counter("entries stored")
    replacements: int = counter("inserts that overwrote a live entry")
    evictions: int = counter("LRU evictions")
    #: by ``invalidate``/``clear``
    invalidations: int = counter("explicit entry drops")
    #: uncachable, non-200, or oversized response
    rejections: int = counter("puts refused (uncachable/oversized)")
    #: also counted as misses
    expirations: int = counter("lookups that found a TTL-expired entry")
    hit_bytes: int = counter("body bytes served from cache")

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(slots=True)
class _Entry:
    """One cached response plus the clock reading when it was stored."""

    response: Response
    stored_at: float


class LRUCache:
    """Thread-safe, byte-budgeted LRU cache of responses keyed by URL."""

    def __init__(
        self, capacity_bytes: int = 64 * 1024 * 1024, ttl: float | None = None
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be > 0, got {capacity_bytes}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be > 0 (or None), got {ttl}")
        self.capacity_bytes = capacity_bytes
        self.ttl = ttl
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Entry] = OrderedDict()
        self._size = 0
        self.stats = CacheStats()

    @property
    def size_bytes(self) -> int:
        with self._lock:
            return self._size

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def gauges(self) -> dict:
        """Occupancy and hit rate: read off the cache rather than counted."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "size_bytes": self._size,
                "capacity_bytes": self.capacity_bytes,
                "hit_rate": self.stats.hit_rate,
            }

    def __contains__(self, url: str) -> bool:
        with self._lock:
            return url in self._entries

    def _fresh(self, entry: _Entry, now: float | None) -> bool:
        if self.ttl is None or now is None:
            return True
        return now - entry.stored_at <= self.ttl

    def get(self, url: str, now: float | None = None) -> Response | None:
        """Fresh-entry lookup, refreshing recency on hit.

        An expired entry is a miss (but stays stored so :meth:`lookup`
        callers can revalidate it instead of re-transferring the body).
        """
        with self._lock:
            entry = self._entries.get(url)
            if entry is None:
                self.stats.misses += 1
                return None
            if not self._fresh(entry, now):
                self.stats.expirations += 1
                self.stats.misses += 1
                return None
            self._entries.move_to_end(url)
            self.stats.hits += 1
            self.stats.hit_bytes += entry.response.content_length
            return entry.response

    def lookup(self, url: str, now: float | None = None):
        """Lookup that surfaces stale entries: ``(response, fresh)`` or ``None``.

        A stale result is counted as an expiration *and* a miss (the
        bytes cannot be served without an upstream round-trip); callers
        that revalidate it successfully should call :meth:`refresh`.
        """
        with self._lock:
            entry = self._entries.get(url)
            if entry is None:
                self.stats.misses += 1
                return None
            if not self._fresh(entry, now):
                self.stats.expirations += 1
                self.stats.misses += 1
                return entry.response, False
            self._entries.move_to_end(url)
            self.stats.hits += 1
            self.stats.hit_bytes += entry.response.content_length
            return entry.response, True

    def note_bypass(self) -> None:
        """Count a lookup that never consulted the store (non-GET traffic).

        Keeps ``hit_rate`` honest: every request the proxy answers is in
        the denominator, not just the GETs that were worth looking up.
        """
        with self._lock:
            self.stats.misses += 1

    def put(self, url: str, response: Response, now: float = 0.0) -> bool:
        """Store a cachable response; ``False`` (a counted rejection) otherwise."""
        with self._lock:
            if (
                not response.cachable
                or response.status != 200
                or response.content_length > self.capacity_bytes
            ):
                self.stats.rejections += 1
                return False
            previous = self._entries.pop(url, None)
            if previous is not None:
                self._size -= previous.response.content_length
                self.stats.replacements += 1
            self._entries[url] = _Entry(response, now)
            self._size += response.content_length
            self.stats.insertions += 1
            while self._size > self.capacity_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._size -= evicted.response.content_length
                self.stats.evictions += 1
            return True

    def refresh(self, url: str, now: float) -> bool:
        """Restart an entry's TTL after a successful upstream revalidation."""
        with self._lock:
            entry = self._entries.get(url)
            if entry is None:
                return False
            entry.stored_at = now
            self._entries.move_to_end(url)
            return True

    def invalidate(self, url: str) -> bool:
        """Drop one entry; returns whether it existed."""
        with self._lock:
            entry = self._entries.pop(url, None)
            if entry is None:
                return False
            self._size -= entry.response.content_length
            self.stats.invalidations += 1
            return True

    def clear(self) -> None:
        with self._lock:
            self.stats.invalidations += len(self._entries)
            self._entries.clear()
            self._size = 0

    def check_consistency(self) -> None:
        """Assert the size/counter invariants (test and debug hook)."""
        with self._lock:
            actual = sum(
                entry.response.content_length for entry in self._entries.values()
            )
            assert self._size == actual, (self._size, actual)
            assert self._size <= self.capacity_bytes
            stats = self.stats
            live = (
                stats.insertions
                - stats.replacements
                - stats.evictions
                - stats.invalidations
            )
            assert live == len(self._entries), (live, len(self._entries))
