"""Live serving layer: the delta-server behind real asyncio sockets.

Everything else in this repository exercises the class-based
delta-encoding scheme under a simulated clock; ``repro.serve`` runs the
same :class:`~repro.core.delta_server.DeltaServer` engine behind an
actual TCP listener speaking a minimal HTTP/1.1, plus the async load
generator that replays workload traces against it.  This is the Section
VI-C experiment — server capacity with and without delta-encoding — made
live.

Modules:

* :mod:`repro.serve.protocol` — HTTP/1.1 wire mapping onto
  ``repro.http`` message types (keep-alive, chunked bodies, cookies).
* :mod:`repro.serve.aio` — :class:`ServerShell` (listeners, connection
  slots, timeouts, admin endpoints, graceful drain) and
  :class:`ConnectionPool`, shared by every tier.
* :mod:`repro.serve.server` — :class:`DeltaHTTPServer`, the engine as a
  handler over the shell, and :func:`build_server` to assemble the full
  stack from synthetic sites.
* :mod:`repro.serve.executor` — :class:`DeltaExecutor`, worker-pool
  offload so the event loop never blocks on the differ.
* :mod:`repro.serve.gateway` — :class:`OriginGateway`, the bridge to the
  origin site, one async fetch with structured fault plans
  (:mod:`repro.resilience.faults`) injected.
* :mod:`repro.serve.loadgen` — :class:`LoadGenerator`, closed/open-loop
  trace replay: the socket driver of :mod:`repro.client.protocol`, with
  verification of every reconstructed byte.
* :mod:`repro.serve.stats` — :class:`ServeStats`, live counters.
"""

from repro.serve.executor import KINDS as EXECUTOR_KINDS
from repro.serve.executor import DeltaExecutor
from repro.serve.gateway import GatewayStats, OriginGateway
from repro.serve.loadgen import (
    LoadGenConfig,
    LoadGenerator,
    LoadReport,
    replay_trace,
)
from repro.serve.protocol import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    ParsedRequest,
    ParsedResponse,
    ProtocolError,
    body_digest,
    digest_matches,
    read_request,
    read_response,
    serialize_request,
    serialize_response,
)
from repro.serve.server import (
    HEALTH_PATH,
    METRICS_PATH,
    MODES,
    PAPER_CONNECTION_LIMIT,
    DeltaHTTPServer,
    build_server,
)
from repro.serve.stats import ServeStats

__all__ = [
    "DeltaExecutor",
    "DeltaHTTPServer",
    "EXECUTOR_KINDS",
    "HEALTH_PATH",
    "GatewayStats",
    "HEADER_BODY_DIGEST",
    "HEADER_SERVED_AT",
    "LoadGenConfig",
    "LoadGenerator",
    "LoadReport",
    "METRICS_PATH",
    "MODES",
    "OriginGateway",
    "PAPER_CONNECTION_LIMIT",
    "ParsedRequest",
    "ParsedResponse",
    "ProtocolError",
    "ServeStats",
    "body_digest",
    "build_server",
    "digest_matches",
    "read_request",
    "read_response",
    "replay_trace",
    "serialize_request",
    "serialize_response",
]
