"""The proxy-cache role of Fig. 2, written once.

Completely delta-unaware, as the architecture requires: it caches whatever
is marked cachable (base-files) and forwards everything else.  Its value in
the class-based scheme is that *one* upstream base-file transfer serves
every client behind the proxy — "many different users will download the
same base-files from a proxy-cache" (Section VI-B).

:class:`ProxyPolicy` is the whole decision — bypass non-GETs, serve fresh
hits, revalidate TTL-expired entries by body checksum, forward misses,
store what the upstream marks cachable, drop what it stops marking — over
an injected ``forward``; it owns the :class:`~repro.proxy.cache.LRUCache`
and the :class:`ProxyStats` and does no I/O of its own.  Two drivers run
it: :class:`ProxyCache` (synchronous, ``forward`` is an in-process call —
the simulation's proxy) and
:class:`repro.proxy.server.ProxyHTTPServer` (asyncio, ``forward`` is a
pooled upstream connection).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Awaitable, Callable

from repro.http.messages import HEADER_IF_NONE_MATCH, Request, Response
from repro.http.sync import run_sync
from repro.metrics.stats import counter
from repro.proxy.cache import LRUCache
from repro.serve.protocol import HEADER_BODY_DIGEST

UpstreamFn = Callable[[Request, float], Response]
Forward = Callable[[Request], Awaitable[Response]]

#: response header reporting how the proxy answered: ``hit`` or
#: ``revalidated`` from the cache, ``miss`` forwarded, ``bypass`` non-GET
HEADER_PROXY_CACHE = "X-Proxy-Cache"


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


class ProxyPolicy:
    """Hit / revalidate / forward / store, for any transport."""

    def __init__(self, capacity_bytes: int, ttl: float | None = None) -> None:
        self.cache = LRUCache(capacity_bytes, ttl=ttl)
        self.stats = ProxyStats()

    async def serve(self, request: Request, now: float, forward: Forward) -> Response:
        """Answer ``request`` from the cache when possible, else via ``forward``.

        Only GET responses are cachable — a 200 to a POST is a method
        side-effect's answer, not the resource's representation, and must
        never be stored under the URL and replayed to later GETs.  Every
        lookup path lands in the cache's hit/miss accounting: non-GETs
        count as bypass misses so ``hit_rate`` reflects all traffic.
        """
        self.stats.requests += 1
        if request.method != "GET":
            self.stats.bypassed += 1
            self.cache.note_bypass()
            return self._deliver(await self._forward(request, forward), "bypass")
        url = request.url
        found = self.cache.lookup(url, now)
        if found is not None and found[1]:
            return self._deliver(_copy(found[0]), "hit")
        # A TTL-expired entry is revalidated, not re-transferred: replay
        # its checksum and the upstream answers 304 while its bytes still
        # match (base-file versions are immutable, so a refresh normally
        # costs headers, not a body).
        digest = found[0].headers.get(HEADER_BODY_DIGEST) if found else None
        upstream_request = request
        if digest is not None:
            upstream_request = replace(request, headers=request.headers.copy())
            upstream_request.headers.set(HEADER_IF_NONE_MATCH, digest)
            self.stats.revalidations += 1
        response = await self._forward(upstream_request, forward)
        if digest is not None and response.status == 304:
            self.stats.revalidated += 1
            self.cache.refresh(url, now)
            return self._deliver(_copy(found[0]), "revalidated")
        if response.status == 200 and response.cachable:
            self.cache.put(url, response, now)
        elif found is not None:
            # The stale entry is not coming back (upstream stopped serving
            # this URL, or stopped marking it cachable): drop it.
            self.cache.invalidate(url)
        return self._deliver(_copy(response), "miss")

    async def _forward(self, request: Request, forward: Forward) -> Response:
        response = await forward(request)
        self.stats.upstream_requests += 1
        self.stats.upstream_bytes += response.content_length
        return response

    def _deliver(self, response: Response, state: str) -> Response:
        response.headers.set(HEADER_PROXY_CACHE, state)
        self.stats.downstream_bytes += response.content_length
        return response


def _copy(response: Response) -> Response:
    """Shallow response copy so served headers never touch the cache."""
    return replace(response, headers=response.headers.copy())


class ProxyCache(ProxyPolicy):
    """The policy driven synchronously over an in-process upstream."""

    def __init__(
        self, upstream: UpstreamFn, capacity_bytes: int = 64 * 1024 * 1024
    ) -> None:
        super().__init__(capacity_bytes)
        self._upstream = upstream

    def handle(self, request: Request, now: float) -> Response:
        async def forward(upstream_request: Request) -> Response:
            return self._upstream(upstream_request, now)

        return run_sync(self.serve(request, now, forward))
