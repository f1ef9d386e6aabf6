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
from dataclasses import dataclass, field

from repro.http.messages import Response
from repro.metrics import (
    LatencySample,
    SizeSample,
    format_sample,
    histogram_lines,
    render_table,
    scalar_lines,
)


@dataclass(slots=True)
class ServeStats:
    """Counters for one live server instance (single event loop; unlocked)."""

    started_at: float | None = None
    connections_accepted: int = 0
    connections_rejected: int = 0
    active_connections: int = 0
    peak_connections: int = 0
    requests: int = 0
    responses: int = 0
    deltas_served: int = 0
    full_documents: int = 0
    base_files_served: int = 0
    errors: int = 0
    timeouts: int = 0
    protocol_errors: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    #: degraded answers: marked-stale base-files and 502 fallbacks
    degraded_stale: int = 0
    degraded_unavailable: int = 0
    health_checks: int = 0
    #: ``/__metrics__`` scrapes (with ``health_checks``: every admin probe)
    metrics_scrapes: int = 0
    status_counts: Counter = field(default_factory=Counter)
    #: unhandled dispatch exceptions, classified by exception type name
    exception_counts: Counter = field(default_factory=Counter)
    #: formatted traceback of the most recent unhandled exception
    last_error: str | None = None
    latencies: LatencySample = field(default_factory=LatencySample)
    response_sizes: SizeSample = field(default_factory=SizeSample)

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
        """Exposition lines for every counter and histogram held here.

        The serve-layer half of ``GET /__metrics__``; the engine and
        resilience registries render their own families.
        """
        counters: list[tuple[str, str, int]] = [
            ("repro_connections_accepted_total", "connections accepted",
             self.connections_accepted),
            ("repro_connections_rejected_total", "connections turned away with 503",
             self.connections_rejected),
            ("repro_requests_total", "HTTP requests parsed", self.requests),
            ("repro_responses_total", "HTTP responses written", self.responses),
            ("repro_deltas_served_total", "delta responses", self.deltas_served),
            ("repro_full_documents_total", "full document responses",
             self.full_documents),
            ("repro_base_files_served_total", "base-file responses",
             self.base_files_served),
            ("repro_errors_total", "responses with status >= 500", self.errors),
            ("repro_timeouts_total", "requests answered 504", self.timeouts),
            ("repro_protocol_errors_total", "malformed inbound framing",
             self.protocol_errors),
            ("repro_bytes_in_total", "request wire bytes read", self.bytes_in),
            ("repro_bytes_out_total", "response wire bytes written", self.bytes_out),
            ("repro_degraded_stale_total", "marked-stale base-file answers",
             self.degraded_stale),
            ("repro_degraded_unavailable_total", "origin-unavailable 502 answers",
             self.degraded_unavailable),
            ("repro_health_checks_total", "GET /__health__ probes",
             self.health_checks),
        ]
        lines = scalar_lines("counter", counters)
        lines.append("# TYPE repro_responses_by_status_total counter")
        for status in sorted(self.status_counts):
            lines.append(
                format_sample(
                    "repro_responses_by_status_total",
                    (("status", str(status)),),
                    self.status_counts[status],
                )
            )
        lines.append("# TYPE repro_exceptions_total counter")
        for name in sorted(self.exception_counts):
            lines.append(
                format_sample(
                    "repro_exceptions_total",
                    (("type", name),),
                    self.exception_counts[name],
                )
            )
        gauges: list[tuple[str, str, float]] = [
            ("repro_active_connections", "", self.active_connections),
            ("repro_peak_connections", "", self.peak_connections),
        ]
        if now is not None and self.started_at is not None:
            gauges.append(("repro_uptime_seconds", "", now - self.started_at))
        lines.extend(scalar_lines("gauge", gauges))
        lines.append("# TYPE repro_request_latency_seconds histogram")
        lines.extend(
            histogram_lines("repro_request_latency_seconds", self.latencies.histogram)
        )
        lines.append("# TYPE repro_response_body_bytes histogram")
        lines.extend(
            histogram_lines("repro_response_body_bytes", self.response_sizes.histogram)
        )
        return lines
