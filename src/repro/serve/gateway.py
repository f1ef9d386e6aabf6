"""Async bridge between the serving layer and an origin site instance.

In Fig. 2 the delta-server sits *next to* the origin web-server; this
gateway is that adjacency for the live stack: it hands requests to a
:class:`~repro.origin.server.OriginServer` and injects the faults of a
:class:`~repro.resilience.faults.FaultPlan` for robustness testing — a
structured, seeded, schedulable composition of error bursts (optionally
URL-filtered), latency (a fixed delay plus uniform jitter per fetch,
modelling a backend that is not colocated), slow-drip responses, payload
corruption, and connection resets, which drives the
retry/breaker/degradation machinery and the per-request-timeout path end
to end.

:meth:`OriginGateway.fetch` is the one fetch; it waits through the
injected ``sleep`` (``asyncio.sleep``, or ``blocking_sleep`` when the
engine runs it on executor threads).  Renders run in parallel — the
sharded engine fetches off-lock and the origin's renderer is pure —
while the gateway's internal lock only covers its stats counters and
the injection decisions, so a slow render never convoys other fetches.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.http.messages import Request, Response
from repro.metrics.stats import counter
from repro.origin.server import OriginServer
from repro.resilience.faults import FaultAction, FaultPlan


@dataclass(slots=True)
class GatewayStats:
    """Counters for the origin bridge."""

    fetches: int = counter("origin fetches through the gateway")
    faults_injected: int = counter("fetches answered by an injected fault")
    injected_latency_seconds: float = counter("latency injected into fetches")
    resets_injected: int = counter("fetches failed by an injected reset")
    corruptions_injected: int = counter("origin bodies corrupted on purpose")
    drip_seconds: float = counter("delay injected by slow-drip responses")


class OriginGateway:
    """Thread-safe, fault-injectable access to one origin server."""

    def __init__(
        self,
        origin: OriginServer,
        *,
        fault_plan: FaultPlan | None = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.origin = origin
        self.fault_plan = fault_plan
        self.stats = GatewayStats()
        self._sleep = sleep
        self._lock = threading.Lock()

    def _complete(self, request: Request, now: float, action: FaultAction) -> Response:
        with self._lock:
            self.stats.fetches += 1
            self.stats.injected_latency_seconds += action.pre_delay
            if action.exception is not None:
                self.stats.resets_injected += 1
                raise action.exception
            if action.response is not None:
                self.stats.faults_injected += 1
                return action.response
        # The render runs outside the gateway lock: OriginServer is
        # thread-safe and rendering is the expensive part of a fetch.
        response = self.origin.handle(request, now)
        if action.corrupt_flips and response.body:
            assert self.fault_plan is not None
            response = Response(
                status=response.status,
                body=self.fault_plan.mangle(response.body, action.corrupt_flips),
                headers=response.headers,
                cachable=response.cachable,
            )
            with self._lock:
                self.stats.corruptions_injected += 1
        return response

    async def fetch(self, request: Request, now: float) -> Response:
        """One origin fetch, with the plan's faults injected."""
        plan = self.fault_plan
        action = plan.decide(request) if plan is not None else FaultAction()
        if action.pre_delay:
            await self._sleep(action.pre_delay)
        response = self._complete(request, now, action)
        if action.drip_bps and response.body:
            drip = len(response.body) / action.drip_bps
            with self._lock:
                self.stats.drip_seconds += drip
            await self._sleep(drip)
        return response
