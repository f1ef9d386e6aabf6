"""The live delta-server: ``repro.core.DeltaServer`` behind real sockets.

This is the deployment posture of Fig. 2 made literal: the class-based
delta-encoding engine as the request handler of the shared HTTP/1.1 shell
(:class:`repro.serve.aio.ServerShell` — connection slots with the paper's
255 ceiling, timeouts, trace ids, ``/__health__`` + ``/__metrics__``,
idle-aware graceful drain).  What this tier adds, each mirroring a
Section VI-C property of the paper's Apache testbed:

* **The event loop never blocks on the differ** — delta generation (and
  origin rendering) runs on a :class:`DeltaExecutor` worker pool; the
  loop only parses, awaits, and writes.  The engine is sharded
  (per-class locks, off-lock origin fetch, snapshot-encode-commit delta
  generation — :mod:`repro.core.delta_server`), so worker threads serving
  different classes genuinely overlap instead of convoying on one engine
  lock; connection handling stays concurrent on the loop.
* **Origin resilience** — origin access goes through a
  :class:`~repro.resilience.policy.ResilientOrigin` (retries with
  backoff under a deadline budget, circuit breaker); when the policy
  gives up, the engine degrades to a marked-stale base-file and the
  front-end to ``502`` — a dead origin never yields raw 500s or a
  worker pool hung on retries.
* **Health and metrics content** — ``/__health__`` reports breaker state,
  quarantined classes, and degradation counters; ``/__metrics__`` renders
  every counter and per-stage histogram (engine pipeline, origin
  resilience, store, fleet router, serve layer), so a slow request's
  ``X-Trace-Id`` can be correlated with its ``X-Stage-Times``.
* **Fleet routing** — with a :class:`~repro.fleet.router.FleetRouter`,
  requests for classes another worker owns are forwarded there.

``mode="plain"`` serves full origin renders through the identical wire
stack (no delta engine), giving the plain-web-server baseline of the
capacity comparison over the same sockets.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.config import DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.fleet.partition import worker_class_prefix
from repro.fleet.router import (
    HEADER_FLEET_FORWARDED,
    HEADER_FLEET_WORKER,
    FleetRouter,
    FleetWorkerConfig,
    PeerUnavailable,
)
from repro.http.messages import (
    HEADER_DEGRADED,
    HEADER_IF_NONE_MATCH,
    Request,
    Response,
)
from repro.http.sync import blocking_sleep, run_sync
from repro.metrics import MetricsRegistry, family_lines, stats_dict, stats_lines
from repro.origin.server import OriginServer
from repro.origin.site import SyntheticSite
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN
from repro.resilience.faults import FaultPlan
from repro.resilience.policy import (
    OriginUnavailable,
    ResilienceConfig,
    ResilientOrigin,
)
from repro.serve.aio import (  # noqa: F401 — the two paths are public names here
    HEALTH_PATH,
    METRICS_PATH,
    PAPER_CONNECTION_LIMIT,
    ServerShell,
)
from repro.serve.executor import DeltaExecutor
from repro.serve.gateway import FaultHook, OriginGateway
from repro.serve.protocol import (
    HEADER_BODY_DIGEST,
    HEADER_SERVED_AT,
    SERVER_SOFTWARE,
    body_digest,
)

logger = logging.getLogger("repro.serve")

MODES = ("delta", "plain")


class DeltaHTTPServer(ServerShell):
    """A :class:`DeltaServer` engine as the handler of its :class:`ServerShell`.

    Listener, slot, timeout and drain options (``host``, ``port``,
    ``max_connections``, ``request_timeout``, ``idle_timeout``,
    ``drain_timeout``, ``chunk_threshold``, ``clock``, ``reuse_port``,
    ``listen_sock``) are the shell's and pass straight through.
    """

    def __init__(
        self,
        gateway: OriginGateway,
        engine: DeltaServer | None = None,
        *,
        mode: str = "delta",
        executor: DeltaExecutor | None = None,
        resilience: ResilientOrigin | None = None,
        metrics: MetricsRegistry | None = None,
        router: FleetRouter | None = None,
        **shell_options: object,
    ) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "delta" and engine is None:
            raise ValueError("delta mode requires a DeltaServer engine")
        super().__init__(
            self.handle,
            health=self.health,
            metrics_lines=self.metrics_lines,
            stamp=self.stamp,
            # Loopback peer port: forwarded intra-fleet requests and the
            # supervisor's health/metrics scrapes arrive here, through
            # the identical connection handling (slots, stats, timeouts).
            loopback_ports=(
                (router.config.internal_port,) if router is not None else ()
            ),
            # One observability sink for the whole stack: prefer the
            # engine's registry (build_server shares it with the resilience
            # policy) so /__metrics__ renders every layer in one pass.
            metrics=metrics
            or (engine.metrics if engine is not None else MetricsRegistry()),
            **shell_options,  # type: ignore[arg-type]
        )
        self.gateway = gateway
        self.engine = engine
        self.resilience = resilience
        self.mode = mode
        self.router = router
        self.stats = self.serve_stats
        # The server owns its executor (shuts it down on close), whether
        # constructed here or handed in.
        self._executor = executor or DeltaExecutor("thread")

    async def close(self) -> None:
        """Drain the shell, then release the executor, peers and store.

        Idempotent — a signal-driven drain racing the ``async with``
        exit path must not double-drain or double-close the store.
        """
        if self.closing:
            return
        await super().close()
        if self.router is not None:
            self.router.close()
        self._executor.shutdown()
        if self.engine is not None:
            # Flush + close the persistent store (no-op without one;
            # engine.close() is itself idempotent).
            self.engine.close()

    # -- the handler -----------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        now = self.clock()
        if self.router is not None:
            if not request.headers.get(HEADER_FLEET_FORWARDED):
                owner = self.router.owner_for_url(request.url)
                if owner != self.router.worker_id:
                    try:
                        # Returned verbatim: the owner already stamped
                        # Server/X-Served-At/digest headers; re-stamping
                        # here would break client-side byte verification.
                        return await self.router.forward(owner, request)
                    except PeerUnavailable:
                        # Same retryable contract as slot exhaustion; the
                        # owner is mid-restart and will be back shortly.
                        response = Response(
                            status=503, body=b"fleet peer unavailable"
                        )
                        response.headers.set(
                            HEADER_FLEET_WORKER, str(self.router.worker_id)
                        )
                        return response
            self.router.note_local(request)
        try:
            if self.mode == "plain":
                fetch = (self.resilience or self.gateway).fetch
                response = await self._executor.run(run_sync, fetch(request, now))
            else:
                assert self.engine is not None
                response = await self._executor.run(
                    self.engine.handle, request, now
                )
        except OriginUnavailable as exc:
            # Plain mode has no base-file to fall back on (in delta mode
            # the engine degrades before this propagates): answer 502.
            logger.warning("origin unavailable for %s: %s", request.url, exc)
            response = Response(status=502, body=b"origin unavailable")
            response.headers.set(HEADER_DEGRADED, "origin-unavailable")
            return response
        self.stamp(response, now)
        digest = response.headers.get(HEADER_BODY_DIGEST)
        if (
            digest is not None
            and response.status == 200
            and response.cachable
            and request.headers.get(HEADER_IF_NONE_MATCH) == digest
        ):
            # Checksum revalidation: the caller (a proxy-cache with a
            # TTL-expired copy) already holds these exact bytes.  304
            # keeps the identifying headers — digest, base-file ref,
            # cachability markers — but sends no body, so a base-file
            # refresh costs headers instead of the full transfer.
            return Response(status=304, headers=response.headers.copy())
        return response

    def stamp(self, response: Response, now: float | None = None) -> None:
        """Identity headers on every answer this worker itself produced."""
        now = self.clock() if now is None else now
        response.headers.set("Server", SERVER_SOFTWARE)
        response.headers.set(HEADER_SERVED_AT, f"{now:.6f}")
        if self.router is not None:
            response.headers.set(
                HEADER_FLEET_WORKER, str(self.router.worker_id)
            )
        if not response.is_delta:
            # Deltas carry their target checksum in the wire payload; every
            # other body gets an integrity tag so clients can verify
            # byte-for-byte what they received.
            response.headers.set(HEADER_BODY_DIGEST, body_digest(response.body))

    async def health(self) -> dict:
        """``/__health__``: breaker, quarantine, and degradation report.

        Built entirely from lock-cheap snapshots (never the engine lock,
        which is held across origin fetches), so the probe answers even
        while the origin is down and workers are mid-backoff.
        """
        breaker_state = (
            self.resilience.breaker.state if self.resilience is not None else None
        )
        engine_health = (
            self.engine.health_snapshot() if self.engine is not None else None
        )
        healthy = (breaker_state in (None, CLOSED)) and not (
            engine_health and engine_health["quarantined"]
        )
        return {
            **stats_dict(self.stats),
            "status": "ok" if healthy else "degraded",
            "mode": self.mode,
            "closing": self.closing,
            "connections": self.connections(),
            "degraded": {
                "stale": self.stats.degraded_stale,
                "unavailable": self.stats.degraded_unavailable,
            },
            "exceptions": dict(self.stats.exception_counts),
            "resilience": (
                self.resilience.snapshot() if self.resilience is not None else None
            ),
            "engine": engine_health,
            "fleet": self.router.snapshot() if self.router is not None else None,
        }

    async def metrics_lines(self) -> list[str]:
        """``/__metrics__``: the whole stack in Prometheus text format.

        One render pass over (a) the shared registry — engine stage
        histograms, resilience attempt/backoff timings — and (b) the
        stats object of every layer this server holds: shell, engine,
        grouper, store, fleet router, gateway, resilience policy, breaker.
        """
        lines = self.metrics.lines() + self.stats.prometheus_lines(self.clock())
        if self.engine is not None:
            grouper = self.engine.grouper
            lines += stats_lines(
                self.engine.stats, "repro_engine_",
                gauges={"classes": len(grouper.classes)},
            )
            lines += stats_lines(grouper.stats, "repro_grouping_")
            store = self.engine.store
            if store is not None:
                lines += stats_lines(
                    store.stats, "repro_store_", gauges=store.gauges()
                )
        if self.router is not None:
            lines += stats_lines(self.router.stats, "repro_fleet_")
        lines += stats_lines(self.gateway.stats, "repro_origin_gateway_")
        if self.resilience is not None:
            breaker = self.resilience.breaker
            state = breaker.state
            lines += stats_lines(self.resilience.stats, "repro_origin_")
            lines += stats_lines(breaker.stats, "repro_breaker_")
            lines += family_lines(
                "gauge", "repro_breaker_state",
                {name: int(name == state) for name in (CLOSED, OPEN, HALF_OPEN)},
                label="state",
            )
        return lines


def build_server(
    sites: Sequence[SyntheticSite] | Iterable[SyntheticSite],
    *,
    mode: str = "delta",
    config: DeltaServerConfig | None = None,
    fault_hook: FaultHook | None = None,
    fault_plan: FaultPlan | None = None,
    resilience: ResilienceConfig | None = None,
    executor_kind: str = "thread",
    executor_workers: int | None = None,
    state_dir: str | Path | None = None,
    snapshot_every: int | None = None,
    fleet: FleetWorkerConfig | None = None,
    **server_kwargs: object,
) -> DeltaHTTPServer:
    """Assemble the full live stack for a set of synthetic sites.

    Mirrors :class:`repro.simulation.engine.Simulation`'s wiring — origin,
    admin rulebook from each site's hint pattern, engine — but in front of
    real sockets instead of the simulated clock.  Origin access goes
    through a :class:`ResilientOrigin` (retries, backoff, circuit breaker,
    degradation) by default; pass ``ResilienceConfig(enabled=False)`` for
    the raw gateway.

    ``state_dir`` switches on the persistent pack/journal store: class
    state and base-file version chains survive restarts (warm start —
    recovery runs inside this call), with full snapshots every
    ``snapshot_every`` versions.  Only meaningful in ``delta`` mode.
    """
    from repro.url.rules import RuleBook

    site_list = list(sites)
    origin = OriginServer(site_list)
    gateway = OriginGateway(
        origin, fault_hook=fault_hook, fault_plan=fault_plan, sleep=blocking_sleep
    )
    # One registry across the stack: engine stage timings, resilience
    # attempt/backoff histograms, and serve-layer write timings all land
    # in the same /__metrics__ exposition.
    registry = MetricsRegistry()
    resilience_config = resilience or ResilienceConfig()
    resilient = (
        ResilientOrigin(
            gateway.fetch, resilience_config, sleep=blocking_sleep, metrics=registry
        )
        if resilience_config.enabled
        else None
    )
    engine = None
    router = None
    if mode == "delta":
        rulebook = RuleBook()
        for site in site_list:
            rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
        if fleet is not None:
            router = FleetRouter(fleet, rulebook)
        store = None
        if state_dir is not None:
            from repro.store import DEFAULT_SNAPSHOT_EVERY, Store

            store = Store.open(
                state_dir,
                snapshot_every=(
                    DEFAULT_SNAPSHOT_EVERY if snapshot_every is None else snapshot_every
                ),
                metrics=registry,
            )
        engine = DeltaServer(
            (resilient or gateway).fetch, config, rulebook, metrics=registry,
            store=store,
            # Fleet workers mint ids under w<k>- so base-file URLs route
            # back to the worker that owns the class (and its shard).
            class_id_prefix=(
                worker_class_prefix(fleet.worker_id) if fleet is not None else ""
            ),
        )
    executor = DeltaExecutor(executor_kind, max_workers=executor_workers)
    return DeltaHTTPServer(
        gateway,
        engine,
        mode=mode,
        executor=executor,
        resilience=resilient,
        metrics=registry,
        router=router,
        **server_kwargs,  # type: ignore[arg-type]
    )
