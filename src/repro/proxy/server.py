"""The live proxy tier: a caching HTTP/1.1 forward proxy over asyncio.

Fig. 2's intermediary made real.  The proxy listens on its own socket,
forwards every request to one upstream delta-server over a pooled
keep-alive connection set, and caches what the upstream marks cachable —
which, in this system, is exactly the anonymized base-files.  "Many
different users will download the same base-files from a proxy-cache"
(Section VI-B): one upstream base-file transfer then serves every client
behind the proxy, and that sharing is the paper's scalability argument
for making dynamic content cachable at all.

What it caches, revalidates and forwards is decided by
:class:`~repro.proxy.proxy.ProxyPolicy` — the same object the
simulation's ``ProxyCache`` runs.  This module is the policy's asyncio
driver: ``forward`` is a round-trip on the pooled upstream connections,
and the tier adds what only a live process has — ``Via``, wire-byte
accounting, ``502`` for an unreachable upstream, and the shell every tier
shares (:mod:`repro.serve.aio`: keep-alive both sides, connection slots,
per-request ``X-Trace-Id`` forwarded upstream so a miss carries one id
over both hops, its own ``/__metrics__`` and ``/__health__``).
"""

from __future__ import annotations

from repro.http.messages import Request, Response
from repro.metrics import (
    MetricsRegistry,
    family_lines,
    render_table,
    stats_dict,
    stats_lines,
)
from repro.proxy.proxy import HEADER_PROXY_CACHE, ProxyPolicy  # noqa: F401 (re-exported)
from repro.serve.aio import ConnectionPool, PeerUnavailable, ServerShell

PROXY_SOFTWARE = "repro-proxy/1.0"

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
        self.policy = ProxyPolicy(capacity_bytes, ttl)
        self.cache = self.policy.cache
        self.stats = self.policy.stats
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
            response = await self.policy.serve(request, self.clock(), self._forward)
        except PeerUnavailable as exc:
            self.stats.upstream_errors += 1
            response = Response(status=502, body=f"upstream error: {exc}".encode())
        self.stamp(response)
        return response

    def stamp(self, response: Response) -> None:
        response.headers.set("Via", f"1.1 {PROXY_SOFTWARE}")

    async def _forward(self, request: Request) -> Response:
        """One upstream round-trip; the wire side of the traffic accounting."""
        parsed = await self._upstream.exchange(request)
        self.stats.upstream_wire_bytes += parsed.wire_bytes
        return parsed.response

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
