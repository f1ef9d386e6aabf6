"""Fleet chaos soak: SIGKILL workers under live load, clients barely notice.

The acceptance scenario for the worker-fleet robustness work: a
3-worker fleet under continuous verified load while a killer repeatedly
SIGKILLs workers mid-flight.  Required outcomes:

* client-visible error rate (errors + timeouts over requests) ≤ 1% —
  transport resets and fleet 503s are retried, not surfaced;
* zero byte-verification mismatches, including requests served right
  after a crashed worker warm-restarts from its store shard;
* the supervisor restarted every killed worker (restarts ≥ kills);
* the fleet reports healthy after the storm;
* the drain completes gracefully with every worker exiting 0.
"""

import asyncio
import os
import signal
from collections import Counter

from repro.fleet import FleetConfig, FleetSupervisor, http_get
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.serve import LoadGenConfig, LoadGenerator
from repro.serve.loadgen import RETRY_TRANSPORT
from repro.url.rules import RuleBook
from repro.workload.generator import WorkloadSpec, generate_workload

SITE = "www.fleetchaos.example"

WORKER_ARGS = (
    "--site", SITE,
    "--categories", "laptops,desktops",
    "--products", "3",
    "--anon-n", "2",
    "--anon-m", "1",
    "--drain-timeout", "5.0",
)

KILLS = 2


def make_spec() -> SiteSpec:
    return SiteSpec(
        name=SITE, categories=("laptops", "desktops"), products_per_category=3
    )


def make_workload(requests: int, seed: int):
    return generate_workload(
        [SyntheticSite(make_spec())],
        WorkloadSpec(
            name="fleet-chaos",
            requests=requests,
            users=8,
            duration=60.0,
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


def hottest_owner(supervisor: FleetSupervisor, trace) -> int:
    """The worker owning the trace's most requested class key.

    Every request for that key ends in its engine, whichever worker the
    kernel handed the connection to (the others forward), so while it is
    down each such request fails over to a client retry.
    """
    site = SyntheticSite(make_spec())
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    keys = Counter(rulebook.partition(record.url).key for record in trace)
    (server, hint), _ = keys.most_common(1)[0]
    return supervisor.partition.owner(server, hint)


async def kill_workers(
    supervisor: FleetSupervisor, kills: int, first: int, storm_running: asyncio.Event
) -> int:
    """SIGKILL workers one at a time, starting at ``first``, waiting for
    each recovery."""
    killed = 0
    for i in range(kills):
        # The first kill must land while the storm is still running (its
        # 500 requests take under a second on a fast box), or no client
        # ever retries and the "kills were felt" gate has nothing to see:
        # it waits for the storm's first verified answers, not a clock.
        if i:
            await asyncio.sleep(0.8)
        else:
            await storm_running.wait()
        handle = supervisor.handles[(first + i) % len(supervisor.handles)]
        restarts_before = handle.restarts
        pid = handle.pid
        if pid is None:
            continue
        os.kill(pid, signal.SIGKILL)
        killed += 1
        # Wait until the supervise loop restarted it and it answers again.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + 20.0
        while loop.time() < deadline:
            if handle.restarts > restarts_before and handle.ready.is_set():
                break
            await asyncio.sleep(0.05)
        else:
            raise AssertionError(f"worker {handle.worker_id} never came back")
    return killed


def test_fleet_chaos_soak(tmp_path):
    async def main():
        supervisor = FleetSupervisor(
            FleetConfig(
                workers=3,
                state_dir=str(tmp_path / "state"),
                worker_args=WORKER_ARGS,
                backoff_base=0.05,
            )
        )
        await supervisor.start()
        try:
            host, port = supervisor.config.host, supervisor.port

            # Warm up so every worker owns committed state before the storm.
            warm = await LoadGenerator(
                LoadGenConfig(host=host, port=port, concurrency=4, retries=3),
                verify_render=make_verify_render(),
            ).run(make_workload(60, seed=7).trace)
            assert warm.completed == 60
            assert warm.verify_failures == 0

            # The storm: verified load and the killer run concurrently.  The
            # first victim owns the storm's hottest class, and it is killed
            # once the storm has answered a few requests: hundreds of
            # requests, most of them for that class, are still to come.
            storm = make_workload(500, seed=13).trace
            storm_running = asyncio.Event()
            verify = make_verify_render()
            answered = 0

            def verify_storm(url: str, user: str, served_at: float) -> bytes:
                nonlocal answered
                answered += 1
                if answered == 10:
                    storm_running.set()
                return verify(url, user, served_at)

            generator = LoadGenerator(
                LoadGenConfig(
                    host=host,
                    port=port,
                    # Enough connections that the first victim holds one:
                    # the kernel spreads them over the 3 workers at random.
                    concurrency=12,
                    # The retry budget must outlast a worker's whole
                    # down-window even when CPU contention stretches the
                    # restart: 8 capped backoffs cover ~6.5 s of outage.
                    retries=8,
                    retry_backoff=0.05,
                    retry_backoff_cap=1.0,
                ),
                verify_render=verify_storm,
            )
            load_task = asyncio.ensure_future(generator.run(storm))
            killed = await kill_workers(
                supervisor, KILLS, hottest_owner(supervisor, storm), storm_running
            )
            report = await load_task
            assert killed == KILLS

            # -- the gates ------------------------------------------------
            client_visible = report.errors + report.timeouts
            assert client_visible / report.requests <= 0.01, report.render()
            assert report.verify_failures == 0
            assert report.delta_failures == 0
            # The kills were actually felt: clients retried through them.
            retried = sum(report.retries_by_status.values())
            assert retried >= 1, dict(report.retries_by_status)
            assert (
                report.retries_by_status.get(RETRY_TRANSPORT, 0) > 0
                or report.retries_by_status.get(503, 0) > 0
            ), dict(report.retries_by_status)
            assert supervisor.restarts_total >= KILLS

            # The fleet settles back to healthy.
            admin_host, admin_port = supervisor.admin_address
            import json

            loop = asyncio.get_running_loop()
            deadline = loop.time() + 10.0
            while loop.time() < deadline:
                response = await http_get(
                    admin_host, admin_port, "__health__", timeout=5.0
                )
                health = json.loads(response.body.decode())
                if health["status"] == "ok":
                    break
                await asyncio.sleep(0.2)
            assert health["status"] == "ok", health
            assert health["fleet"]["alive"] == 3

            # Post-storm verified load: byte-identical service continues.
            after = await LoadGenerator(
                LoadGenConfig(host=host, port=port, concurrency=4, retries=3),
                verify_render=make_verify_render(),
            ).run(make_workload(60, seed=29).trace)
            assert after.completed == 60
            assert after.verify_failures == 0
            assert after.errors == 0
        finally:
            drain = await supervisor.drain()
        for worker in drain["workers"]:
            assert worker["exit_code"] == 0, drain

    asyncio.run(main())
