"""Tests for the origin bridge (repro.serve.gateway)."""

import asyncio
import time

import pytest

from repro.http.messages import Request
from repro.http.sync import blocking_sleep, run_sync
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.resilience.faults import FaultPlan, FaultRule, OriginResetError
from repro.serve.gateway import OriginGateway


@pytest.fixture()
def origin():
    return OriginServer([SyntheticSite(SiteSpec(name="www.g.example"))])


def first_url(origin: OriginServer) -> str:
    site = origin.site("www.g.example")
    return site.url_for(site.all_pages()[0])


def test_fetch_hits_origin(origin):
    gateway = OriginGateway(origin)
    response = run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    assert response.status == 200
    assert len(response.body) > 1000
    assert gateway.stats.fetches == 1


def test_async_fetch_same_result(origin):
    # The two drive modes of the one fetch: run_sync on a thread with a
    # blocking sleep, and awaited on a loop with asyncio.sleep.
    plan = [FaultRule(kind="latency", delay=0.01)]
    request = Request(url=first_url(origin))
    blocking = OriginGateway(origin, fault_plan=FaultPlan(plan), sleep=blocking_sleep)
    sync_body = run_sync(blocking.fetch(request, now=0.0)).body
    gateway = OriginGateway(origin, fault_plan=FaultPlan(plan))
    async_body = asyncio.run(gateway.fetch(request, now=0.0)).body
    assert sync_body == async_body


def test_jitter_stays_in_band(origin):
    delays = []

    async def record(seconds: float) -> None:
        delays.append(seconds)

    plan = FaultPlan([FaultRule(kind="latency", delay=0.01, jitter=0.02)], seed=3)
    gateway = OriginGateway(origin, fault_plan=plan, sleep=record)
    for _ in range(50):
        run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    assert all(0.01 <= d <= 0.03 for d in delays)
    assert len(set(delays)) > 1


def test_matched_error_rule_substitutes_response(origin):
    plan = FaultPlan(
        [FaultRule(kind="error", match="id=0", status=503, body=b"injected outage")]
    )
    gateway = OriginGateway(origin, fault_plan=plan)
    url = first_url(origin)
    assert "id=0" in url
    response = run_sync(gateway.fetch(Request(url=url), now=0.0))
    assert response.status == 503 and response.body == b"injected outage"
    assert gateway.stats.faults_injected == 1
    # Other URLs pass through untouched.
    other = url.replace("id=0", "id=1")
    assert run_sync(gateway.fetch(Request(url=other), now=0.0)).status == 200
    assert gateway.stats.faults_injected == 1


def test_negative_latency_rejected(origin):
    with pytest.raises(ValueError):
        FaultRule(kind="latency", delay=-1.0)
    with pytest.raises(ValueError):
        FaultRule(kind="latency", jitter=-0.1)


def test_fault_plan_error_rule(origin):
    plan = FaultPlan([FaultRule(kind="error", status=502, body=b"down")])
    gateway = OriginGateway(origin, fault_plan=plan)
    response = run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    assert response.status == 502 and response.body == b"down"
    assert gateway.stats.faults_injected == 1


def test_fault_plan_reset_rule(origin):
    plan = FaultPlan([FaultRule(kind="reset")])
    gateway = OriginGateway(origin, fault_plan=plan)
    with pytest.raises(OriginResetError):
        run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    assert gateway.stats.resets_injected == 1
    # The lock was released on the raise: the gateway still works once
    # the plan is disabled.
    plan.disable()
    assert run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0)).status == 200


def test_fault_plan_corruption_mangles_body(origin):
    plan = FaultPlan([FaultRule(kind="corrupt", flips=4)])
    gateway = OriginGateway(origin, fault_plan=plan)
    request = Request(url=first_url(origin))
    clean = run_sync(OriginGateway(origin).fetch(request, now=0.0))
    mangled = run_sync(gateway.fetch(request, now=0.0))
    assert mangled.status == 200
    assert mangled.body != clean.body
    assert len(mangled.body) == len(clean.body)
    assert gateway.stats.corruptions_injected == 1


def test_fault_plan_drip_slows_response(origin):
    plan = FaultPlan([FaultRule(kind="drip", bps=200_000.0)])
    gateway = OriginGateway(origin, fault_plan=plan, sleep=blocking_sleep)
    started = time.perf_counter()
    response = run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    elapsed = time.perf_counter() - started
    expected = len(response.body) / 200_000.0
    assert elapsed >= expected
    assert gateway.stats.drip_seconds >= expected


def test_fault_plan_latency_adds_pre_delay(origin):
    plan = FaultPlan([FaultRule(kind="latency", delay=0.03)])
    gateway = OriginGateway(origin, fault_plan=plan, sleep=blocking_sleep)
    started = time.perf_counter()
    run_sync(gateway.fetch(Request(url=first_url(origin)), now=0.0))
    assert time.perf_counter() - started >= 0.03
    assert gateway.stats.injected_latency_seconds >= 0.03
