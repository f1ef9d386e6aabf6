"""Live serving counters, wired into the ``repro.metrics`` substrate.

The discrete-event simulator reports throughput/concurrency from its
virtual clock; this module is the same accounting for the real asyncio
server: connection slots, per-request wall-clock latency percentiles
(:class:`~repro.metrics.collector.LatencySample`), response-size samples
(:class:`~repro.metrics.collector.SizeSample`), and the delta/full/base
split that Table II-style bandwidth math needs.  ``render`` produces the
same aligned tables every benchmark emits.
"""

from __future__ import annotations

import traceback
from collections import Counter
from dataclasses import dataclass

from repro.http.messages import Response
from repro.metrics import (
    LatencySample,
    SizeSample,
    counter,
    gauge,
    histogram,
    render_table,
    stats_lines,
)


@dataclass(slots=True)
class ServeStats:
    """Counters for one live server instance (single event loop; unlocked)."""

    started_at: float | None = None
    connections_accepted: int = counter("connections accepted")
    connections_rejected: int = counter("connections turned away with 503")
    active_connections: int = gauge("currently open client connections")
    peak_connections: int = gauge("most connections open at once")
    requests: int = counter("HTTP requests parsed")
    responses: int = counter("HTTP responses written")
    deltas_served: int = counter("delta responses")
    full_documents: int = counter("full document responses")
    base_files_served: int = counter("base-file responses")
    errors: int = counter("responses with status >= 500")
    timeouts: int = counter("requests answered 504")
    protocol_errors: int = counter("malformed inbound framing")
    bytes_in: int = counter("request wire bytes read")
    bytes_out: int = counter("response wire bytes written")
    #: degraded answers: marked-stale base-files and 502 fallbacks
    degraded_stale: int = counter("marked-stale base-file answers")
    degraded_unavailable: int = counter("origin-unavailable 502 answers")
    health_checks: int = counter("GET /__health__ probes")
    #: with ``health_checks``: every admin probe
    metrics_scrapes: int = counter("GET /__metrics__ scrapes")
    status_counts: Counter = counter(name="responses_by_status", label="status")
    #: unhandled dispatch exceptions, classified by exception type name
    exception_counts: Counter = counter(name="exceptions", label="type")
    #: formatted traceback of the most recent unhandled exception
    last_error: str | None = None
    latencies: LatencySample = histogram(LatencySample, name="request_latency_seconds")
    response_sizes: SizeSample = histogram(SizeSample, name="response_body_bytes")

    # -- event hooks -----------------------------------------------------------

    def on_connection_open(self) -> None:
        self.connections_accepted += 1
        self.active_connections += 1
        self.peak_connections = max(self.peak_connections, self.active_connections)

    def on_connection_rejected(self, wire_bytes: int = 0) -> None:
        """A connection turned away with 503.

        The rejection is a real response on the wire, so it must land in
        *all* of the response accounting — ``responses``,
        ``status_counts``, and (when known) ``bytes_out`` — or
        ``throughput_rps`` and the status table disagree under
        admission-control load.  Invariant:
        ``sum(status_counts.values()) == responses``.
        """
        self.connections_rejected += 1
        self.responses += 1
        self.status_counts[503] += 1
        if wire_bytes:
            self.bytes_out += wire_bytes

    def on_connection_close(self) -> None:
        self.active_connections -= 1

    def on_exception(self, exc: BaseException) -> None:
        """Classify an unhandled dispatch exception by type, keeping the
        formatted traceback for diagnostics instead of discarding it."""
        self.exception_counts[type(exc).__name__] += 1
        self.last_error = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )

    def on_response(
        self, response: Response, wire_bytes: int, latency_seconds: float | None
    ) -> None:
        self.responses += 1
        self.status_counts[response.status] += 1
        self.bytes_out += wire_bytes
        self.response_sizes.add(len(response.body))
        if latency_seconds is not None:
            self.latencies.add(latency_seconds)
        if response.status >= 500:
            self.errors += 1
        degraded = response.degraded
        if degraded == "stale-base":
            self.degraded_stale += 1
        elif degraded is not None:
            self.degraded_unavailable += 1
        if response.status != 200:
            return
        if response.is_delta:
            self.deltas_served += 1
        elif response.cachable and response.is_base_file:
            self.base_files_served += 1
        else:
            self.full_documents += 1

    # -- reporting -------------------------------------------------------------

    def throughput_rps(self, now: float) -> float:
        """Responses per second of wall-clock since ``started_at``."""
        if self.started_at is None or now <= self.started_at:
            return 0.0
        return self.responses / (now - self.started_at)

    def render(self, now: float | None = None, title: str = "live server") -> str:
        rows: list[list[object]] = [
            ["connections accepted / rejected",
             f"{self.connections_accepted} / {self.connections_rejected}"],
            ["peak concurrent connections", self.peak_connections],
            ["requests / responses", f"{self.requests} / {self.responses}"],
            ["deltas / fulls / base-files",
             f"{self.deltas_served} / {self.full_documents} / {self.base_files_served}"],
            ["errors / timeouts / protocol errors",
             f"{self.errors} / {self.timeouts} / {self.protocol_errors}"],
            ["degraded stale / unavailable",
             f"{self.degraded_stale} / {self.degraded_unavailable}"],
            ["exceptions by type",
             ", ".join(
                 f"{name}:{count}"
                 for name, count in sorted(self.exception_counts.items())
             ) or "none"],
            ["bytes in / out", f"{self.bytes_in} / {self.bytes_out}"],
            ["mean response body", f"{self.response_sizes.mean:.0f} B"],
            ["latency mean / p50 / p99",
             f"{self.latencies.mean * 1000:.1f} / "
             f"{self.latencies.percentile(50) * 1000:.1f} / "
             f"{self.latencies.percentile(99) * 1000:.1f} ms"],
        ]
        if now is not None:
            rows.append(["throughput", f"{self.throughput_rps(now):.1f} req/s"])
        return render_table(["metric", "value"], rows, title=title)

    def snapshot_line(self, now: float | None = None) -> str:
        """One-line periodic snapshot (``--metrics-interval`` logger)."""
        uptime = (
            now - self.started_at
            if now is not None and self.started_at is not None
            else 0.0
        )
        return (
            f"[metrics] uptime={uptime:.1f}s"
            f" requests={self.requests} responses={self.responses}"
            f" rps={self.throughput_rps(now) if now is not None else 0.0:.1f}"
            f" active={self.active_connections} rejected={self.connections_rejected}"
            f" deltas={self.deltas_served} fulls={self.full_documents}"
            f" bases={self.base_files_served}"
            f" errors={self.errors} timeouts={self.timeouts}"
            f" degraded={self.degraded_stale + self.degraded_unavailable}"
            f" p50={self.latencies.percentile(50) * 1000:.1f}ms"
            f" p99={self.latencies.percentile(99) * 1000:.1f}ms"
            f" bytes_out={self.bytes_out}"
        )

    def prometheus_lines(self, now: float | None = None) -> list[str]:
        """Exposition lines for every counter, gauge and histogram held here.

        The serve-layer part of ``GET /__metrics__``; ``now`` adds the
        uptime gauge.
        """
        gauges = {}
        if now is not None and self.started_at is not None:
            gauges["uptime_seconds"] = now - self.started_at
        return stats_lines(self, "repro_", gauges=gauges)
