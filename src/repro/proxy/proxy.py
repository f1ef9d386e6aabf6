"""Forward proxy-cache sitting between clients and the delta-server.

Completely delta-unaware, as the architecture requires: it caches whatever
is marked cachable (base-files) and forwards everything else.  Its value in
the class-based scheme is that *one* upstream base-file transfer serves
every client behind the proxy — "many different users will download the
same base-files from a proxy-cache" (Section VI-B).

This is the synchronous simulation object (used by ``repro.simulation``
and the baselines); :mod:`repro.proxy.server` runs the same cache
semantics as a live asyncio tier in front of a real delta-server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.http.messages import Request, Response
from repro.metrics.stats import counter
from repro.proxy.cache import LRUCache

UpstreamFn = Callable[[Request, float], Response]


@dataclass(slots=True)
class ProxyStats:
    """Traffic accounting on both sides of the proxy.

    ``upstream_bytes``/``downstream_bytes`` count response *bodies* (the
    conservation invariant ``downstream_bytes >= upstream_bytes`` holds
    whenever the cache produced at least one hit); ``upstream_wire_bytes``
    — used by the live tier — counts actual bytes read off the upstream
    wire (the downstream wire is the serving shell's ``bytes_out``).
    """

    requests: int = counter("requests proxied (admin excluded)")
    bypassed: int = counter("non-GET requests forwarded uncached", name="bypass")
    upstream_requests: int = counter("round-trips to the upstream")
    upstream_bytes: int = counter("body bytes read", name="upstream_body_bytes")
    downstream_bytes: int = counter("body bytes served", name="downstream_body_bytes")
    #: live tier only: wire-level accounting for the byte-savings math
    upstream_wire_bytes: int = counter("wire bytes read from the upstream")
    revalidations: int = counter("conditional refreshes of TTL-expired entries")
    revalidated: int = counter("revalidations answered 304 Not Modified")
    upstream_errors: int = counter("failed upstream round-trips")


class ProxyCache:
    """A caching forward proxy (synchronous simulation form)."""

    def __init__(
        self, upstream: UpstreamFn, capacity_bytes: int = 64 * 1024 * 1024
    ) -> None:
        self._upstream = upstream
        self.cache = LRUCache(capacity_bytes)
        self.stats = ProxyStats()

    def handle(self, request: Request, now: float) -> Response:
        """Serve from cache when possible, else forward upstream.

        Only GET responses are cachable — a 200 to a POST is a method
        side-effect's answer, not the resource's representation, and must
        never be stored under the URL and replayed to later GETs.  Every
        lookup path lands in the cache's hit/miss accounting: non-GETs
        count as bypass misses so ``hit_rate`` reflects all traffic.
        """
        self.stats.requests += 1
        is_get = request.method == "GET"
        if is_get:
            cached = self.cache.get(request.url, now)
            if cached is not None:
                self.stats.downstream_bytes += cached.content_length
                return cached
        else:
            self.stats.bypassed += 1
            self.cache.note_bypass()
        response = self._upstream(request, now)
        self.stats.upstream_requests += 1
        self.stats.upstream_bytes += response.content_length
        self.stats.downstream_bytes += response.content_length
        if is_get:
            self.cache.put(request.url, response, now)
        return response
