"""The live proxy tier: a caching HTTP/1.1 forward proxy over asyncio.

Fig. 2's intermediary made real.  The proxy listens on its own socket,
forwards every request to one upstream delta-server over a pooled
keep-alive connection set, and caches what the upstream marks cachable —
which, in this system, is exactly the anonymized base-files.  "Many
different users will download the same base-files from a proxy-cache"
(Section VI-B): one upstream base-file transfer then serves every client
behind the proxy, and that sharing is the paper's scalability argument
for making dynamic content cachable at all.

Properties:

* **Delta-unaware.**  The proxy never parses delta payloads or
  ``X-Delta`` headers; it keys purely on URL, method, and the standard
  cachability markers.  Deltas and personalized documents pass through
  untouched — the transparent-deployment point of Section VI-C.
* **Byte-budgeted LRU with TTL** (:class:`~repro.proxy.cache.LRUCache`):
  entries past their TTL are *revalidated*, not re-transferred — the
  proxy replays the cached body's checksum in ``If-None-Match`` and the
  delta-server answers ``304 Not Modified`` when its base-file still has
  those exact bytes (base-file versions are immutable, so a refresh
  normally costs headers, not bodies).
* **Same shell and pool as every tier** (:mod:`repro.serve.aio`):
  keep-alive both sides, connection slots, per-request ``X-Trace-Id``
  (forwarded upstream, so a miss carries one id over both hops), its own
  ``/__metrics__`` (cache and traffic families) and ``/__health__``, so a
  hierarchy of processes can each be scraped independently.

Every response served from cache carries ``X-Proxy-Cache: hit`` (or
``revalidated``); forwarded answers carry ``miss`` (``bypass`` for
non-GETs).  Bodies are byte-identical to what the upstream would serve:
hits replay the stored body whose ``X-Body-Digest`` clients keep
verifying end-to-end.
"""

from __future__ import annotations

from repro.http.messages import HEADER_IF_NONE_MATCH, Request, Response
from repro.metrics import (
    MetricsRegistry,
    family_lines,
    render_table,
    stats_dict,
    stats_lines,
)
from repro.proxy.cache import LRUCache
from repro.proxy.proxy import ProxyStats
from repro.serve.aio import ConnectionPool, PeerUnavailable, ServerShell
from repro.serve.protocol import HEADER_BODY_DIGEST, ParsedResponse

PROXY_SOFTWARE = "repro-proxy/1.0"

#: response header reporting how the proxy answered
HEADER_PROXY_CACHE = "X-Proxy-Cache"

#: default TTL before a cached base-file is revalidated upstream
DEFAULT_TTL = 300.0

#: the ``ServeStats`` fields exported under ``repro_proxy_``
_SHELL_FIELDS = (
    "connections_accepted", "connections_rejected", "protocol_errors",
    "timeouts", "status_counts", "active_connections",
)


class ProxyHTTPServer(ServerShell):
    """Caching forward proxy in front of one upstream server.

    The request handler of its :class:`~repro.serve.aio.ServerShell`
    (whose ``host``, ``port``, ``max_connections``, ``request_timeout``,
    ``idle_timeout``, ``drain_timeout``, ``chunk_threshold`` and ``clock``
    options pass straight through); upstream traffic goes through one
    :class:`~repro.serve.aio.ConnectionPool`.
    """

    def __init__(
        self,
        upstream_host: str,
        upstream_port: int,
        *,
        capacity_bytes: int = 64 * 1024 * 1024,
        ttl: float | None = DEFAULT_TTL,
        upstream_connections: int = 16,
        **shell_options: object,
    ) -> None:
        if upstream_connections < 1:
            raise ValueError("upstream_connections must be >= 1")
        shell_options.setdefault("metrics", MetricsRegistry())
        super().__init__(
            self.handle,
            health=self.health,
            metrics_lines=self.metrics_lines,
            stamp=self.stamp,
            **shell_options,  # type: ignore[arg-type]
        )
        self.upstream_host = upstream_host
        self.upstream_port = upstream_port
        self.cache = LRUCache(capacity_bytes, ttl=ttl)
        self.stats = ProxyStats()
        self._upstream = ConnectionPool(
            upstream_host,
            upstream_port,
            max_open=upstream_connections,
            max_parked=upstream_connections,
        )

    async def close(self) -> None:
        await super().close()
        self._upstream.close()

    # -- the handler -----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        try:
            response = await self._lookup_or_forward(request)
        except PeerUnavailable as exc:
            self.stats.upstream_errors += 1
            response = Response(status=502, body=f"upstream error: {exc}".encode())
        self.stamp(response)
        return response

    def stamp(self, response: Response) -> None:
        response.headers.set("Via", f"1.1 {PROXY_SOFTWARE}")

    async def _lookup_or_forward(self, request: Request) -> Response:
        self.stats.requests += 1
        if request.method != "GET":
            # A cachable 200 to a POST is the side-effect's answer, not
            # the resource's representation: never stored, never served
            # from the store — but still a counted lookup so hit_rate
            # reflects every request the proxy answered.
            self.stats.bypassed += 1
            self.cache.note_bypass()
            upstream = await self._forward(request)
            return self._deliver(upstream.response, "bypass")
        now = self.clock()
        found = self.cache.lookup(request.url, now)
        if found is not None:
            cached, fresh = found
            if fresh:
                return self._deliver(self._copy(cached), "hit")
            refreshed = await self._revalidate(request, cached, now)
            if refreshed is not None:
                return refreshed
        upstream = await self._forward(request)
        response = upstream.response
        if response.status == 200 and response.cachable:
            self.cache.put(request.url, response, now)
        elif found is not None:
            # The stale entry is not coming back (upstream stopped serving
            # this URL, or stopped marking it cachable): drop it.
            self.cache.invalidate(request.url)
        return self._deliver(self._copy(response), "miss")

    async def _revalidate(
        self, request: Request, cached: Response, now: float
    ) -> Response | None:
        """Refresh a TTL-expired entry with a checksum-conditional fetch.

        Returns the response to serve, or ``None`` to fall through to an
        unconditional forward (no digest to validate against).
        """
        digest = cached.headers.get(HEADER_BODY_DIGEST)
        if digest is None:
            return None
        conditional = Request(
            url=request.url,
            method=request.method,
            headers=request.headers.copy(),
            cookies=dict(request.cookies),
            client_id=request.client_id,
        )
        conditional.headers.set(HEADER_IF_NONE_MATCH, digest)
        self.stats.revalidations += 1
        upstream = await self._forward(conditional)
        response = upstream.response
        if response.status == 304:
            # The upstream's bytes still match the cached checksum: the
            # refresh cost headers, not a body transfer.
            self.stats.revalidated += 1
            self.cache.refresh(request.url, now)
            return self._deliver(self._copy(cached), "revalidated")
        if response.status == 200 and response.cachable:
            self.cache.put(request.url, response, now)
        else:
            self.cache.invalidate(request.url)
        return self._deliver(self._copy(response), "miss")

    async def _forward(self, request: Request) -> ParsedResponse:
        """One upstream round-trip with wire/body accounting."""
        parsed = await self._upstream.exchange(request)
        self.stats.upstream_requests += 1
        self.stats.upstream_wire_bytes += parsed.wire_bytes
        self.stats.upstream_bytes += parsed.response.content_length
        return parsed

    @staticmethod
    def _copy(response: Response) -> Response:
        """Shallow response copy so served headers never touch the cache."""
        return Response(
            status=response.status,
            body=response.body,
            headers=response.headers.copy(),
            cachable=response.cachable,
        )

    def _deliver(self, response: Response, state: str) -> Response:
        response.headers.set(HEADER_PROXY_CACHE, state)
        self.stats.downstream_bytes += response.content_length
        return response

    # -- observability ---------------------------------------------------------

    async def health(self) -> dict:
        return {
            "status": "ok" if not self.closing else "draining",
            "upstream": {"host": self.upstream_host, "port": self.upstream_port},
            "connections": self.connections(),
            "cache": {
                "ttl": self.cache.ttl,
                **self.cache.gauges(),
                **stats_dict(self.cache.stats),
            },
            "traffic": {
                "downstream_wire_bytes": self.serve_stats.bytes_out,
                **stats_dict(self.stats),
            },
        }

    async def metrics_lines(self) -> list[str]:
        """The proxy's traffic, cache and shell families in exposition format."""
        served = self.serve_stats
        uptime = {}
        if served.started_at is not None:
            uptime["uptime_seconds"] = self.clock() - served.started_at
        return (
            self.metrics.lines()  # write-stage timing, collector pauses
            + stats_lines(self.stats, "repro_proxy_")
            + stats_lines(
                self.cache.stats, "repro_proxy_cache_", gauges=self.cache.gauges()
            )
            # The shell's counts this tier has always exported; its
            # ``requests`` (admin included) would collide with the
            # proxy's own (admin excluded).
            + stats_lines(served, "repro_proxy_", only=_SHELL_FIELDS, gauges=uptime)
            + family_lines(
                "counter", "repro_proxy_downstream_wire_bytes_total",
                served.bytes_out, help="wire bytes written to clients",
            )
            + family_lines(
                "counter", "repro_proxy_admin_requests_total",
                served.health_checks + served.metrics_scrapes,
                help="metrics/health probes answered locally",
            )
        )

    def render(self, title: str = "proxy tier") -> str:
        """Aligned stats table (CLI exit report)."""
        traffic = self.stats
        cache = self.cache.stats
        served = self.serve_stats
        saved = traffic.downstream_bytes - traffic.upstream_bytes
        rows: list[list[object]] = [
            ["requests (bypassed non-GET)",
             f"{traffic.requests} ({traffic.bypassed})"],
            ["upstream requests / errors",
             f"{traffic.upstream_requests} / {traffic.upstream_errors}"],
            ["cache hits / misses (hit rate)",
             f"{cache.hits} / {cache.misses} ({cache.hit_rate:.1%})"],
            ["revalidations (304 confirmed)",
             f"{traffic.revalidations} ({traffic.revalidated})"],
            ["entries / size",
             f"{len(self.cache)} / {self.cache.size_bytes} B"],
            ["insertions / evictions / invalidations / rejections",
             f"{cache.insertions} / {cache.evictions} / "
             f"{cache.invalidations} / {cache.rejections}"],
            ["body bytes upstream / downstream (saved)",
             f"{traffic.upstream_bytes} / {traffic.downstream_bytes} ({saved})"],
            ["wire bytes upstream / downstream",
             f"{traffic.upstream_wire_bytes} / {served.bytes_out}"],
            ["connections accepted / rejected",
             f"{served.connections_accepted} / {served.connections_rejected}"],
        ]
        return render_table(["metric", "value"], rows, title=title)
