"""Async bridge between the serving layer and an origin site instance.

In Fig. 2 the delta-server sits *next to* the origin web-server; this
gateway is that adjacency for the live stack: it hands requests to a
:class:`~repro.origin.server.OriginServer` and exposes the injection
points for robustness testing:

* **latency** — a fixed floor plus uniform jitter per fetch, modelling a
  backend that is not colocated (drives the per-request-timeout path in
  :mod:`repro.serve.server`);
* **fault plan** — a :class:`~repro.resilience.faults.FaultPlan`: a
  structured, seeded, schedulable composition of error bursts, latency
  spikes, slow-drip responses, payload corruption, and connection resets
  (drives the retry/breaker/degradation machinery end to end);
* **fault hook** — the legacy single callable that may substitute an
  error response for any request; still supported, and hardened: a hook
  that *raises* is converted into an injected 500 and counted
  (``hook_failures``) instead of escaping with the gateway lock's stats
  half-updated and killing the worker request.

``fetch_sync`` is the flavour the :class:`DeltaServer` engine consumes as
its ``origin_fetch`` (it runs on executor worker threads, so it may
``time.sleep``); ``fetch`` is the awaitable flavour used when the serving
layer bypasses the engine (plain mode health checks, tests).  Renders run
in parallel — the sharded engine fetches off-lock and the origin's
renderer is pure — while the gateway's internal lock only covers its
stats counters and the injection decisions (seeded rng draws, fault-plan
bookkeeping), so a slow render never convoys other fetches.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.http.messages import Request, Response
from repro.metrics.stats import counter
from repro.origin.server import OriginServer
from repro.resilience.faults import FaultAction, FaultPlan

#: May return a Response to inject in place of the origin's (fault), or
#: None to let the request through.
FaultHook = Callable[[Request], Response | None]


@dataclass(slots=True)
class GatewayStats:
    """Counters for the origin bridge."""

    fetches: int = counter("origin fetches through the gateway")
    faults_injected: int = counter("fetches answered by an injected fault")
    injected_latency_seconds: float = counter("latency injected into fetches")
    hook_failures: int = counter("fault hooks that raised (answered as a 500)")
    resets_injected: int = counter("fetches failed by an injected reset")
    corruptions_injected: int = counter("origin bodies corrupted on purpose")
    drip_seconds: float = counter("delay injected by slow-drip responses")


class OriginGateway:
    """Thread-safe, fault-injectable access to one origin server."""

    def __init__(
        self,
        origin: OriginServer,
        *,
        latency: float = 0.0,
        jitter: float = 0.0,
        fault_hook: FaultHook | None = None,
        fault_plan: FaultPlan | None = None,
        seed: int = 7,
    ) -> None:
        if latency < 0 or jitter < 0:
            raise ValueError("latency and jitter must be >= 0")
        self.origin = origin
        self.latency = latency
        self.jitter = jitter
        self.fault_hook = fault_hook
        self.fault_plan = fault_plan
        self.stats = GatewayStats()
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def _draw_delay(self) -> float:
        with self._lock:
            if self.jitter:
                return self.latency + self._rng.random() * self.jitter
            return self.latency

    def _plan_action(self, request: Request) -> FaultAction:
        if self.fault_plan is None:
            return FaultAction()
        return self.fault_plan.decide(request)

    def _complete(
        self, request: Request, now: float, delay: float, action: FaultAction
    ) -> Response:
        with self._lock:
            self.stats.fetches += 1
            self.stats.injected_latency_seconds += delay
            if action.exception is not None:
                self.stats.resets_injected += 1
                raise action.exception
            if action.response is not None:
                self.stats.faults_injected += 1
                return action.response
            if self.fault_hook is not None:
                try:
                    injected = self.fault_hook(request)
                except Exception:
                    # A buggy hook must read as an origin fault, not kill
                    # the worker request with the stats half-updated.
                    self.stats.hook_failures += 1
                    return Response(status=500, body=b"fault hook raised")
                if injected is not None:
                    self.stats.faults_injected += 1
                    return injected
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

    def _drip_delay(self, action: FaultAction, response: Response) -> float:
        if not action.drip_bps or not response.body:
            return 0.0
        drip = len(response.body) / action.drip_bps
        with self._lock:
            self.stats.drip_seconds += drip
        return drip

    def fetch_sync(self, request: Request, now: float) -> Response:
        """Blocking fetch — the engine's ``origin_fetch`` (worker threads)."""
        action = self._plan_action(request)
        delay = self._draw_delay() + action.pre_delay
        if delay:
            time.sleep(delay)
        response = self._complete(request, now, delay, action)
        drip = self._drip_delay(action, response)
        if drip:
            time.sleep(drip)
        return response

    async def fetch(self, request: Request, now: float) -> Response:
        """Awaitable fetch for loop-side callers."""
        action = self._plan_action(request)
        delay = self._draw_delay() + action.pre_delay
        if delay:
            await asyncio.sleep(delay)
        response = self._complete(request, now, delay, action)
        drip = self._drip_delay(action, response)
        if drip:
            await asyncio.sleep(drip)
        return response
