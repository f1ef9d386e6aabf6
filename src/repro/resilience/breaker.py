"""Origin circuit breaker: stop hammering a dead backend.

The delta-server sits in the request path next to the origin (Fig. 2);
when the origin dies, every worker thread that keeps retrying against it
is a worker thread not serving clients, and a full connection-slot table
of hung requests amplifies the outage to the whole site.  The classic
remedy is a circuit breaker (Nygard, *Release It!*), here with the usual
three states:

* **closed** — calls flow; outcomes land in a sliding window.  When the
  window holds at least ``min_calls`` outcomes and the failure fraction
  reaches ``failure_threshold``, the breaker *opens*.
* **open** — calls are denied instantly (``allow`` returns False) for
  ``cooldown`` seconds.  Callers degrade instead of hanging.
* **half-open** — after the cooldown, up to ``probes`` concurrent trial
  calls are let through.  ``probes`` successes close the breaker (window
  cleared); any probe failure reopens it and restarts the cooldown.  A
  probe abandoned with no outcome must :meth:`~CircuitBreaker.release`
  its slot, or ``probes`` of them would wedge the breaker half-open.

Thread-safe: the live server records outcomes from executor worker
threads.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.metrics.stats import counter, stats_dict

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(slots=True)
class BreakerStats:
    """Lifetime transition and outcome counters."""

    successes: int = counter("origin outcomes recorded as success")
    failures: int = counter("origin outcomes recorded as failure")
    opened: int = counter("transitions to open")
    half_opens: int = counter("transitions from open to half-open")
    reclosed: int = counter("transitions from half-open back to closed")
    fast_fails: int = counter("calls denied while open or half-open saturated")


class CircuitBreaker:
    """Error-rate circuit breaker over a sliding outcome window."""

    def __init__(
        self,
        *,
        window: int = 32,
        min_calls: int = 8,
        failure_threshold: float = 0.5,
        cooldown: float = 5.0,
        probes: int = 2,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if window < 1 or min_calls < 1:
            raise ValueError("window and min_calls must be >= 1")
        if min_calls > window:
            raise ValueError("min_calls cannot exceed window")
        if not 0.0 < failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in (0, 1]")
        if cooldown < 0 or probes < 1:
            raise ValueError("cooldown must be >= 0 and probes >= 1")
        self.cooldown = cooldown
        self.probes = probes
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.stats = BreakerStats()
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._clock = clock or time.monotonic
        self._state = CLOSED
        self._opened_at = 0.0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._lock = threading.Lock()

    # -- state -----------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def failure_rate(self) -> float:
        """Failure fraction of the current window (0.0 when empty)."""
        with self._lock:
            if not self._outcomes:
                return 0.0
            return sum(1 for ok in self._outcomes if not ok) / len(self._outcomes)

    def snapshot(self) -> dict:
        """State + counters for health reporting (lock-cheap)."""
        with self._lock:
            self._maybe_half_open()
            return {
                "state": self._state,
                "window": list(self._outcomes).count(False),
                "window_size": len(self._outcomes),
                **stats_dict(self.stats),
            }

    # -- protocol --------------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now (counts denials)."""
        with self._lock:
            self._maybe_half_open()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and self._probes_in_flight < self.probes:
                self._probes_in_flight += 1
                return True
            self.stats.fast_fails += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.stats.successes += 1
            if self._state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.probes:
                    self._state = CLOSED
                    self._outcomes.clear()
                    self.stats.reclosed += 1
            elif self._state == CLOSED:
                self._outcomes.append(True)
            # open: a straggler finished after the trip; the cooldown stands.

    def record_failure(self) -> None:
        with self._lock:
            self.stats.failures += 1
            if self._state == HALF_OPEN:
                self._open()
            elif self._state == CLOSED:
                self._outcomes.append(False)
                if len(self._outcomes) >= self.min_calls:
                    failures = sum(1 for ok in self._outcomes if not ok)
                    if failures / len(self._outcomes) >= self.failure_threshold:
                        self._open()

    def release(self) -> None:
        """Hand back the half-open slot of a call that recorded no outcome."""
        with self._lock:
            if self._state == HALF_OPEN and self._probes_in_flight > 0:
                self._probes_in_flight -= 1

    # -- internals (call with the lock held) -----------------------------------

    def _open(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._probes_in_flight = 0
        self._probe_successes = 0
        self.stats.opened += 1

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown:
            self._state = HALF_OPEN
            self._probes_in_flight = 0
            self._probe_successes = 0
            self.stats.half_opens += 1

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r}, opened={self.stats.opened})"
