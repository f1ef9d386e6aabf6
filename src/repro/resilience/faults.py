"""Structured fault injection for the origin path.

Real origin failures are more than a swapped response — error *bursts*
during a deploy, latency spikes when a database fails over, slow-drip
responses from an overloaded backend, bit-rot in a payload, connections
reset mid-flight — and they arrive on a schedule, not uniformly.  A :class:`FaultPlan` models exactly that: a
composable, seeded list of :class:`FaultRule` entries, each with an
injection probability, an optional activation window (seconds relative to
the plan's arming instant), and an optional URL filter.

Rule kinds:

* ``error``   — substitute an error response (``status``, ``body``);
* ``latency`` — add delay before the fetch (``delay`` + uniform ``jitter``);
* ``drip``    — slow-drip the response: delay *after* the fetch scaled by
  body size (``bps`` bytes/second), modelling a saturated origin uplink;
* ``corrupt`` — XOR-flip ``flips`` random bytes of the response body;
* ``reset``   — raise :class:`OriginResetError` in place of a response,
  modelling a TCP reset from the origin.

``decide`` evaluates every rule per fetch (faults compose: a request can
be both delayed and reset), so one plan can describe an entire chaos
scenario.  All randomness comes from the plan's own seeded generator, so
a scenario replays identically.  Plans are thread-safe: the live server
calls ``decide`` from executor worker threads.

``FaultPlan.parse`` reads the CLI mini-language::

    error:rate=0.1,status=500;latency:rate=0.05,delay=0.2,jitter=0.1
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.http.messages import Request, Response

KINDS = ("error", "latency", "drip", "corrupt", "reset")


class OriginResetError(ConnectionError):
    """Injected connection reset from the origin (``reset`` rules)."""


@dataclass(slots=True)
class FaultRule:
    """One injectable failure mode, optionally windowed and URL-filtered."""

    kind: str
    #: injection probability per eligible fetch, in [0, 1]
    rate: float = 1.0
    #: activation window, seconds relative to plan arming (None = unbounded)
    start: float | None = None
    end: float | None = None
    #: URL substring filter ("" matches every request)
    match: str = ""
    #: ``error``: injected response
    status: int = 500
    body: bytes = b"injected origin error"
    #: ``latency``: fixed floor + uniform jitter, seconds
    delay: float = 0.0
    jitter: float = 0.0
    #: ``drip``: response body bytes per second (0 = no drip)
    bps: float = 0.0
    #: ``corrupt``: number of bytes to XOR-flip
    flips: int = 1
    #: label used in the plan's injection counters
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"fault kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.delay < 0 or self.jitter < 0 or self.bps < 0:
            raise ValueError("delay, jitter and bps must be >= 0")
        if self.flips < 1:
            raise ValueError("flips must be >= 1")
        if self.start is not None and self.end is not None and self.end < self.start:
            raise ValueError("window end must be >= start")
        if not self.name:
            self.name = self.kind

    def active(self, elapsed: float) -> bool:
        """Whether the rule's window covers ``elapsed`` seconds after arming."""
        if self.start is not None and elapsed < self.start:
            return False
        if self.end is not None and elapsed >= self.end:
            return False
        return True


@dataclass(slots=True)
class FaultAction:
    """The composed effect of every triggered rule for one fetch."""

    pre_delay: float = 0.0
    response: Response | None = None
    exception: Exception | None = None
    corrupt_flips: int = 0
    drip_bps: float = 0.0

    @property
    def is_noop(self) -> bool:
        return (
            self.pre_delay == 0.0
            and self.response is None
            and self.exception is None
            and self.corrupt_flips == 0
            and self.drip_bps == 0.0
        )


_FLOAT_KEYS = {"rate", "start", "end", "delay", "jitter", "bps"}
_INT_KEYS = {"status", "flips"}


class FaultPlan:
    """A seeded, schedulable composition of :class:`FaultRule` entries."""

    def __init__(
        self,
        rules: Sequence[FaultRule],
        *,
        seed: int = 23,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
    ) -> None:
        self.rules = list(rules)
        self.enabled = enabled
        self.injected: Counter = Counter()
        self._rng = random.Random(seed)
        self._clock = clock or time.monotonic
        self._armed_at: float | None = None
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------------

    def arm(self, at: float | None = None) -> None:
        """Pin the window origin; otherwise the first ``decide`` call arms."""
        with self._lock:
            self._armed_at = self._clock() if at is None else at

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    @property
    def elapsed(self) -> float:
        """Seconds since arming (0.0 before the first decision)."""
        with self._lock:
            if self._armed_at is None:
                return 0.0
            return self._clock() - self._armed_at

    # -- decisions -------------------------------------------------------------

    def decide(self, request: Request) -> FaultAction:
        """Evaluate every rule against one fetch; thread-safe."""
        action = FaultAction()
        if not self.enabled:
            return action
        with self._lock:
            now = self._clock()
            if self._armed_at is None:
                self._armed_at = now
            elapsed = now - self._armed_at
            for rule in self.rules:
                if not rule.active(elapsed):
                    continue
                if rule.match and rule.match not in request.url:
                    continue
                if self._rng.random() >= rule.rate:
                    continue
                self.injected[rule.name] += 1
                if rule.kind == "error":
                    if action.response is None:
                        action.response = Response(status=rule.status, body=rule.body)
                elif rule.kind == "latency":
                    action.pre_delay += rule.delay + self._rng.random() * rule.jitter
                elif rule.kind == "drip":
                    # Two drips compose to the slower (lower-bps) of the two.
                    if action.drip_bps:
                        action.drip_bps = min(action.drip_bps, rule.bps)
                    else:
                        action.drip_bps = rule.bps
                elif rule.kind == "corrupt":
                    action.corrupt_flips += rule.flips
                elif rule.kind == "reset":
                    action.exception = OriginResetError(
                        f"injected connection reset ({rule.name})"
                    )
        return action

    def mangle(self, body: bytes, flips: int) -> bytes:
        """XOR-flip ``flips`` seeded-random bytes of ``body``."""
        if not body:
            return body
        data = bytearray(body)
        with self._lock:
            for _ in range(flips):
                data[self._rng.randrange(len(data))] ^= 0xFF
        return bytes(data)

    # -- CLI surface -----------------------------------------------------------

    @classmethod
    def parse(cls, spec: str, *, seed: int = 23) -> "FaultPlan":
        """Build a plan from the ``kind:key=val,...;kind:...`` mini-language."""
        rules = []
        for chunk in spec.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            kind, _, params = chunk.partition(":")
            kwargs: dict[str, object] = {}
            for pair in params.split(","):
                pair = pair.strip()
                if not pair:
                    continue
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep:
                    raise ValueError(f"malformed fault parameter {pair!r}")
                if key in _FLOAT_KEYS:
                    kwargs[key] = float(value)
                elif key in _INT_KEYS:
                    kwargs[key] = int(value)
                elif key == "body":
                    kwargs[key] = value.encode()
                elif key in ("match", "name"):
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault parameter {key!r}")
            rules.append(FaultRule(kind=kind.strip(), **kwargs))  # type: ignore[arg-type]
        if not rules:
            raise ValueError(f"fault plan spec {spec!r} contains no rules")
        return cls(rules, seed=seed)

    def describe(self) -> str:
        parts = []
        for rule in self.rules:
            window = ""
            if rule.start is not None or rule.end is not None:
                end = f"{rule.end:g}" if rule.end is not None else "inf"
                window = f"@[{rule.start or 0:g},{end})"
            parts.append(f"{rule.name}:{rule.rate:g}{window}")
        state = "on" if self.enabled else "off"
        return f"FaultPlan({state}; {'; '.join(parts)})"

    def __repr__(self) -> str:
        return self.describe()
