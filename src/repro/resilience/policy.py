"""Origin resilience policy: retries, backoff, deadline budget, breaker.

:class:`ResilientOrigin` wraps any :data:`OriginFetch` (in practice
:meth:`repro.serve.gateway.OriginGateway.fetch`) with the standard
in-path survival kit:

* **bounded retries with exponential backoff + jitter** — a transient
  origin error (5xx response, connection reset, render exception) is
  retried up to ``retries`` times, pausing ``backoff_base * 2**attempt``
  seconds (capped at ``backoff_cap``) with multiplicative jitter so
  retry storms decorrelate;
* **per-request deadline budget** — retrying stops when the next pause
  would cross ``deadline`` seconds of total effort, so a request never
  outlives the serving layer's patience just to retry;
* **circuit breaker** — every outcome feeds a
  :class:`~repro.resilience.breaker.CircuitBreaker`; when it opens, calls
  fail fast with :class:`OriginUnavailable` instead of stacking worker
  threads on a dead origin.

On exhaustion — breaker open, retries spent, or deadline crossed — the
policy raises :class:`OriginUnavailable`.  The layers above translate
that into *graceful degradation*: the delta engine serves the class's
current base-file as a marked-stale full response when it has one, and
the HTTP front-end answers 502 otherwise.  Clients never see a raw 500
because the origin blinked.

The same ``now`` value is passed to every retry, so a time-dependent
origin renders the identical snapshot on each attempt — retries are
idempotent by construction.

Backoff pauses go through the injected ``sleep`` (``asyncio.sleep``, or
``blocking_sleep`` under ``run_sync`` on an executor thread).
"""

from __future__ import annotations

import asyncio
import random
import threading
import time
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.http.messages import Request, Response
from repro.metrics.registry import MetricsRegistry
from repro.metrics.stats import counter, stats_dict
from repro.resilience.breaker import CircuitBreaker

#: ``await fetch(request, now)``: the engine's origin, and this policy's
OriginFetch = Callable[[Request, float], Awaitable[Response]]


class OriginUnavailable(RuntimeError):
    """The origin cannot serve this request within the resilience budget."""

    def __init__(
        self,
        reason: str,
        *,
        breaker_state: str | None = None,
        attempts: int = 0,
        last_status: int | None = None,
    ) -> None:
        super().__init__(reason)
        self.reason = reason
        self.breaker_state = breaker_state
        self.attempts = attempts
        self.last_status = last_status


@dataclass(slots=True)
class ResilienceConfig:
    """Knobs for the origin resilience policy (defaults are serving-safe)."""

    #: retry attempts after the first try
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    #: multiplicative jitter fraction: pause *= 1 + U(0, jitter)
    backoff_jitter: float = 0.5
    #: total per-request effort budget, seconds (fetches + backoff)
    deadline: float = 10.0
    breaker_window: int = 32
    breaker_min_calls: int = 8
    breaker_failure_threshold: float = 0.5
    breaker_cooldown: float = 5.0
    breaker_probes: int = 2

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_cap < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff parameters must be >= 0")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")

    def make_breaker(self, clock: Callable[[], float] | None = None) -> CircuitBreaker:
        return CircuitBreaker(
            window=self.breaker_window,
            min_calls=self.breaker_min_calls,
            failure_threshold=self.breaker_failure_threshold,
            cooldown=self.breaker_cooldown,
            probes=self.breaker_probes,
            clock=clock,
        )


@dataclass(slots=True)
class ResilienceStats:
    """Counters for one policy instance."""

    calls: int = counter("origin fetches requested of the policy")
    retries: int = counter("origin fetch retry attempts")
    #: exported as the sum of the ``origin_backoff_seconds`` histogram
    backoff_seconds: float = 0.0
    fast_fails: int = counter(
        "calls denied instantly by the open breaker", name="breaker_rejections"
    )
    exhausted: int = counter("calls that burned every retry")
    deadline_exhausted: int = counter("calls whose next backoff crossed the deadline")


class ResilientOrigin:
    """Retry/backoff/breaker wrapper around an origin fetch."""

    def __init__(
        self,
        fetch: OriginFetch,
        config: ResilienceConfig | None = None,
        *,
        breaker: CircuitBreaker | None = None,
        clock: Callable[[], float] | None = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        seed: int = 17,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ResilienceConfig()
        self.breaker = breaker or self.config.make_breaker(clock)
        self.stats = ResilienceStats()
        #: observability sink: attempt/backoff timings as named
        #: histograms (shared with the serving layer when wired through
        #: ``build_server``); the counts live on ``stats``.
        self.metrics = metrics or MetricsRegistry()
        self._fetch = fetch
        self._clock = clock or time.monotonic
        self._sleep = sleep
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    # -- internals -------------------------------------------------------------

    def _pause(self, attempt: int) -> float:
        base = min(
            self.config.backoff_cap, self.config.backoff_base * (2**attempt)
        )
        with self._lock:
            jitter = self._rng.random()
        return base * (1.0 + self.config.backoff_jitter * jitter)

    def _give_up(
        self, reason: str, attempts: int, last_status: int | None
    ) -> OriginUnavailable:
        return OriginUnavailable(
            reason,
            breaker_state=self.breaker.state,
            attempts=attempts,
            last_status=last_status,
        )

    @staticmethod
    def _is_failure(response: Response) -> bool:
        # 5xx means the origin failed to render; everything else (404s,
        # redirects) is the origin's real answer and passes through.
        return response.status >= 500

    # -- public API ------------------------------------------------------------

    async def fetch(self, request: Request, now: float) -> Response:
        """Fetch with retries; raises :class:`OriginUnavailable` on defeat."""
        config = self.config
        with self._lock:
            self.stats.calls += 1
        deadline = self._clock() + config.deadline
        attempt = 0
        last_status: int | None = None
        last_error: Exception | None = None
        while True:
            if not self.breaker.allow():
                with self._lock:
                    self.stats.fast_fails += 1
                raise self._give_up("circuit open", attempt, last_status)
            attempt_started = self._clock()
            outcome: str | None = None
            try:
                response = await self._fetch(request, now)
            except OriginUnavailable:
                raise
            except Exception as exc:
                self.breaker.record_failure()
                last_status, last_error = None, exc
                outcome = "error"
            else:
                if self._is_failure(response):
                    self.breaker.record_failure()
                    last_status, last_error = response.status, None
                    outcome = "failure"
                else:
                    self.breaker.record_success()
                    outcome = "success"
            finally:
                # Cancelled (request timeout, drain) or an inner
                # OriginUnavailable: nothing to record, but a half-open
                # probe slot this attempt holds must not leak.
                if outcome is None:
                    self.breaker.release()
            self.metrics.observe(
                "origin_attempt_seconds",
                self._clock() - attempt_started,
                {"outcome": outcome},
                help="wall-clock of each origin fetch attempt",
            )
            if outcome == "success":
                return response
            attempt += 1
            if attempt > config.retries:
                with self._lock:
                    self.stats.exhausted += 1
                raise self._give_up(
                    "retries exhausted", attempt, last_status
                ) from last_error
            pause = self._pause(attempt - 1)
            if self._clock() + pause >= deadline:
                with self._lock:
                    self.stats.deadline_exhausted += 1
                raise self._give_up(
                    "deadline budget exhausted", attempt, last_status
                ) from last_error
            with self._lock:
                self.stats.retries += 1
                self.stats.backoff_seconds += pause
            self.metrics.observe(
                "origin_backoff_seconds",
                pause,
                help="backoff pauses between origin retry attempts",
            )
            await self._sleep(pause)

    def snapshot(self) -> dict:
        """Policy + breaker counters for health reporting."""
        with self._lock:
            policy = stats_dict(self.stats)
        return {"policy": policy, "breaker": self.breaker.snapshot()}
