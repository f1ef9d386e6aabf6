"""Chaos soak: the live stack survives a full fault scenario end to end.

The acceptance scenario for the resilience work: a live delta-server under
a structured fault plan (10% origin 500s plus latency spikes) with one
base-file corrupted mid-run, driven by the resilient load generator.
Required outcomes:

* every request completes with zero byte-mismatches;
* no client ever sees a raw 500;
* the circuit breaker demonstrably opens under a full outage and recovers
  to closed;
* the quarantined class heals itself (fresh base re-adopted);
* the server drains cleanly.
"""

import asyncio

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.resilience.breaker import CLOSED, OPEN
from repro.resilience.faults import FaultPlan, FaultRule
from repro.resilience.policy import ResilienceConfig
from repro.serve import LoadGenConfig, LoadGenerator, build_server
from repro.workload.generator import WorkloadSpec, generate_workload

SITE = "www.chaos.example"


def make_spec() -> SiteSpec:
    return SiteSpec(name=SITE, products_per_category=3)


def make_workload(requests: int, seed: int):
    return generate_workload(
        [SyntheticSite(make_spec())],
        WorkloadSpec(
            name="chaos",
            requests=requests,
            users=5,
            duration=30.0,
            revisit_bias=0.7,
            seed=seed,
        ),
    )


def make_verify_render():
    twin = OriginServer([SyntheticSite(make_spec())])

    def verify(url: str, user: str, served_at: float) -> bytes:
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        return twin.handle(request, served_at).body

    return verify


def test_chaos_soak():
    plan = FaultPlan(
        [
            FaultRule(kind="error", rate=0.10, status=500, name="burst"),
            FaultRule(kind="latency", rate=0.05, delay=0.02, jitter=0.02),
        ],
        seed=23,
        enabled=False,
    )
    resilience = ResilienceConfig(
        retries=3,
        backoff_base=0.01,
        backoff_cap=0.1,
        deadline=8.0,
        breaker_window=16,
        breaker_min_calls=5,
        breaker_failure_threshold=0.6,
        breaker_cooldown=0.3,
        breaker_probes=2,
    )

    async def main():
        server = build_server(
            [SyntheticSite(make_spec())],
            config=DeltaServerConfig(
                anonymization=AnonymizationConfig(
                    enabled=True, documents=2, min_count=1
                )
            ),
            fault_plan=plan,
            resilience=resilience,
        )
        await server.start()
        host, port = server.address
        engine = server.engine
        breaker = server.resilience.breaker
        try:
            # Phase 1 — warm up clean: classes form, bases distribute.
            warm = await LoadGenerator(
                LoadGenConfig(host=host, port=port, concurrency=4),
                verify_render=make_verify_render(),
            ).run(make_workload(60, seed=9).trace)
            assert warm.completed == 60
            assert warm.verify_failures == 0
            assert warm.deltas > 0

            # Phase 2 — storage bit-rot: corrupt one class's distributable
            # base in place.  The next delta attempt must quarantine the
            # class instead of shipping a rotten delta.
            servable = [c for c in engine.grouper.classes if c.can_serve_deltas]
            assert servable, "warm-up produced no delta-servable class"
            victim = servable[0]
            body = bytearray(victim.current.body)
            body[len(body) // 2] ^= 0xFF
            victim.current.body = bytes(body)

            # Phase 3 — chaos: 10% origin errors + latency spikes, clients
            # retrying.  Everything must still complete and verify.
            plan.enable()
            chaos = await LoadGenerator(
                LoadGenConfig(
                    host=host, port=port, concurrency=4,
                    retries=4, retry_backoff=0.02, retry_backoff_cap=0.2,
                ),
                verify_render=make_verify_render(),
            ).run(make_workload(120, seed=31).trace)
            plan.disable()
            assert chaos.completed == 120
            assert chaos.verify_failures == 0
            assert chaos.delta_failures == 0
            assert chaos.errors == 0
            # No request — client- or server-side — was answered 500.
            assert chaos.status_counts.get(500, 0) == 0
            assert server.stats.status_counts.get(500, 0) == 0
            # The corrupted base was caught, quarantined, and healed.
            assert engine.stats.quarantines >= 1
            assert engine.stats.integrity_failures >= 1
            assert engine.stats.quarantine_recoveries >= 1
            assert engine.health_snapshot()["quarantined"] == []
            assert not victim.quarantined

            # Phase 4 — full outage: 100% errors open the breaker; clients
            # get marked-stale base-files, never raw errors.
            outage = FaultRule(kind="error", rate=1.0, status=500, name="outage")
            plan.rules.append(outage)
            plan.enable()
            degraded = await LoadGenerator(
                LoadGenConfig(host=host, port=port, concurrency=2),
            ).run(make_workload(30, seed=47).trace)
            assert breaker.stats.opened >= 1
            assert server.stats.degraded_stale > 0
            assert degraded.status_counts.get(500, 0) == 0
            assert server.stats.status_counts.get(500, 0) == 0

            # Phase 5 — recovery: faults off, cooldown passes, probe
            # traffic recloses the breaker.
            plan.disable()
            await asyncio.sleep(0.35)
            recovery = await LoadGenerator(
                LoadGenConfig(host=host, port=port, concurrency=2),
                verify_render=make_verify_render(),
            ).run(make_workload(30, seed=53).trace)
            assert recovery.completed == 30
            assert recovery.verify_failures == 0
            assert breaker.state == CLOSED
            assert breaker.stats.reclosed >= 1
        finally:
            # Phase 6 — clean drain.
            await server.close()
        assert server.stats.active_connections == 0

    asyncio.run(main())
