"""Tests for the origin resilience policy (repro.resilience.policy)."""

import asyncio

import pytest

from repro.http.messages import Request, Response
from repro.http.sync import run_sync
from repro.resilience.breaker import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.resilience.policy import (
    OriginUnavailable,
    ResilienceConfig,
    ResilienceStats,
    ResilientOrigin,
)


def req() -> Request:
    return Request(url="www.f.example/page?id=1")


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


class ScriptedOrigin:
    """Yields a scripted sequence of responses / exceptions, then repeats last."""

    def __init__(self, *outcomes) -> None:
        self.outcomes = list(outcomes)
        self.calls = 0
        self.seen_now: list[float] = []

    async def __call__(self, request: Request, now: float) -> Response:
        self.calls += 1
        self.seen_now.append(now)
        outcome = self.outcomes.pop(0) if len(self.outcomes) > 1 else self.outcomes[0]
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


OK = Response(status=200, body=b"fresh")
ERR = Response(status=500, body=b"boom")


def make(origin, clock=None, *, sleeps=None, **overrides) -> ResilientOrigin:
    knobs = dict(
        retries=2,
        backoff_base=0.1,
        backoff_cap=0.4,
        backoff_jitter=0.0,  # deterministic pauses
        deadline=10.0,
        breaker_window=8,
        breaker_min_calls=4,
        breaker_cooldown=2.0,
    )
    knobs.update(overrides)
    config = ResilienceConfig(**knobs)
    clock = clock or FakeClock()

    async def sleep(pause: float) -> None:
        if sleeps is not None:
            sleeps.append(pause)
        clock.advance(pause)

    return ResilientOrigin(origin, config, clock=clock, sleep=sleep)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(backoff_base=-0.1)
        with pytest.raises(ValueError):
            ResilienceConfig(deadline=0.0)

    def test_make_breaker_carries_knobs(self):
        config = ResilienceConfig(breaker_window=16, breaker_min_calls=5)
        breaker = config.make_breaker()
        assert breaker.min_calls == 5


class TestRetries:
    def test_clean_fetch_passes_through(self):
        origin = ScriptedOrigin(OK)
        policy = make(origin)
        assert run_sync(policy.fetch(req(), 1.0)).body == b"fresh"
        assert origin.calls == 1
        assert policy.stats.retries == 0

    def test_retry_then_success(self):
        origin = ScriptedOrigin(ERR, ConnectionError("reset"), OK)
        sleeps = []
        policy = make(origin, sleeps=sleeps)
        response = run_sync(policy.fetch(req(), 1.0))
        assert response.status == 200
        assert origin.calls == 3
        assert policy.stats.retries == 2
        # Exponential: base 0.1, then 0.2 (jitter disabled).
        assert sleeps == [0.1, 0.2]
        assert policy.stats.backoff_seconds == pytest.approx(0.3)

    def test_backoff_is_capped(self):
        origin = ScriptedOrigin(ERR, ERR, ERR, ERR, OK)
        sleeps = []
        # min_calls high enough that four straight failures don't trip the
        # breaker mid-retry (that behavior has its own test below).
        policy = make(origin, retries=4, sleeps=sleeps, breaker_min_calls=8)
        run_sync(policy.fetch(req(), 1.0))
        assert sleeps == [0.1, 0.2, 0.4, 0.4]  # capped at backoff_cap

    def test_same_now_on_every_attempt(self):
        origin = ScriptedOrigin(ERR, OK)
        policy = make(origin)
        run_sync(policy.fetch(req(), 42.5))
        assert origin.seen_now == [42.5, 42.5]

    def test_exhaustion_raises_with_context(self):
        origin = ScriptedOrigin(ERR)
        policy = make(origin, retries=2)
        with pytest.raises(OriginUnavailable) as excinfo:
            run_sync(policy.fetch(req(), 1.0))
        assert excinfo.value.reason == "retries exhausted"
        assert excinfo.value.attempts == 3
        assert excinfo.value.last_status == 500
        assert policy.stats.exhausted == 1
        assert origin.calls == 3

    def test_exception_exhaustion_chains_cause(self):
        reset = ConnectionError("reset")
        origin = ScriptedOrigin(reset)
        policy = make(origin, retries=1)
        with pytest.raises(OriginUnavailable) as excinfo:
            run_sync(policy.fetch(req(), 1.0))
        assert excinfo.value.last_status is None
        assert excinfo.value.__cause__ is reset

    def test_non_5xx_is_not_a_failure(self):
        origin = ScriptedOrigin(Response(status=404, body=b"nope"))
        policy = make(origin)
        assert run_sync(policy.fetch(req(), 1.0)).status == 404
        assert origin.calls == 1
        assert policy.breaker.failure_rate() == 0.0


class TestDeadline:
    def test_deadline_stops_retrying(self):
        clock = FakeClock()
        origin = ScriptedOrigin(ERR)
        policy = make(origin, clock, retries=50, deadline=0.25)
        with pytest.raises(OriginUnavailable) as excinfo:
            run_sync(policy.fetch(req(), 1.0))
        assert excinfo.value.reason == "deadline budget exhausted"
        assert policy.stats.deadline_exhausted == 1
        # 0.1 spent sleeping; the next 0.2 pause would cross 0.25.
        assert origin.calls == 2


class TestBreaker:
    def test_breaker_opens_and_fast_fails(self):
        origin = ScriptedOrigin(ERR)
        policy = make(origin, retries=0)
        for _ in range(4):  # breaker_min_calls=4, all failures
            with pytest.raises(OriginUnavailable):
                run_sync(policy.fetch(req(), 1.0))
        assert policy.breaker.state == OPEN
        calls_before = origin.calls
        with pytest.raises(OriginUnavailable) as excinfo:
            run_sync(policy.fetch(req(), 1.0))
        assert excinfo.value.reason == "circuit open"
        assert origin.calls == calls_before  # origin never touched
        assert policy.stats.fast_fails == 1

    def test_breaker_recovers_through_half_open(self):
        clock = FakeClock()
        origin = ScriptedOrigin(ERR, ERR, ERR, ERR, OK)
        policy = make(origin, clock, retries=0)
        for _ in range(4):
            with pytest.raises(OriginUnavailable):
                run_sync(policy.fetch(req(), 1.0))
        assert policy.breaker.state == OPEN
        clock.advance(2.0)  # cooldown elapses -> half-open probes
        assert run_sync(policy.fetch(req(), 1.0)).status == 200
        assert run_sync(policy.fetch(req(), 1.0)).status == 200
        assert policy.breaker.state == CLOSED
        assert policy.breaker.stats.reclosed == 1

    def test_shared_breaker_instance(self):
        breaker = CircuitBreaker(window=8, min_calls=4, cooldown=2.0)
        policy = ResilientOrigin(
            ScriptedOrigin(OK), ResilienceConfig(), breaker=breaker
        )
        assert policy.breaker is breaker


class HangingOrigin:
    """Fails, then hangs (or gives up on its own), then recovers."""

    def __init__(self) -> None:
        self.mode = "fail"

    async def __call__(self, request: Request, now: float) -> Response:
        if self.mode == "fail":
            return ERR
        if self.mode == "hang":
            await asyncio.sleep(60)
        if self.mode == "unavailable":
            raise OriginUnavailable("inner policy gave up")
        return OK


class TestAbandonedProbes:
    """A half-open probe that records no outcome hands its slot back."""

    @staticmethod
    async def half_open(origin: HangingOrigin, clock: FakeClock) -> ResilientOrigin:
        policy = make(origin, clock, retries=0)
        for _ in range(4):
            with pytest.raises(OriginUnavailable):
                await policy.fetch(req(), 1.0)
        clock.advance(2.0)
        assert policy.breaker.state == HALF_OPEN
        return policy

    @staticmethod
    async def recovers(policy: ResilientOrigin, origin: HangingOrigin) -> None:
        origin.mode = "ok"
        for _ in range(policy.breaker.probes):
            assert (await policy.fetch(req(), 1.0)).status == 200
        assert policy.breaker.state == CLOSED

    def test_cancelled_probes_do_not_wedge_the_breaker(self):
        async def main():
            origin, clock = HangingOrigin(), FakeClock()
            policy = await self.half_open(origin, clock)
            origin.mode = "hang"
            for _ in range(policy.breaker.probes):
                # What the serve shell's request timeout does to a handler.
                with pytest.raises(asyncio.TimeoutError):
                    await asyncio.wait_for(policy.fetch(req(), 1.0), 0.01)
            await self.recovers(policy, origin)

        asyncio.run(main())

    def test_inner_unavailable_probes_do_not_wedge_the_breaker(self):
        async def main():
            origin, clock = HangingOrigin(), FakeClock()
            policy = await self.half_open(origin, clock)
            origin.mode = "unavailable"
            for _ in range(policy.breaker.probes):
                with pytest.raises(OriginUnavailable):
                    await policy.fetch(req(), 1.0)
            await self.recovers(policy, origin)

        asyncio.run(main())


class TestSnapshot:
    def test_snapshot_shape(self):
        policy = make(ScriptedOrigin(OK))
        run_sync(policy.fetch(req(), 1.0))
        snap = policy.snapshot()
        assert snap["policy"]["calls"] == 1
        assert snap["breaker"]["state"] == CLOSED

    def test_stats_dataclass_defaults(self):
        stats = ResilienceStats()
        assert stats.calls == 0 and stats.backoff_seconds == 0.0
