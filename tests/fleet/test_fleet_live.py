"""Live fleet tests: a real supervisor owning real worker processes.

These tests spawn actual ``python -m repro.cli serve`` subprocesses via
:class:`repro.fleet.FleetSupervisor` and exercise the full robustness
story over TCP: shared-address accept, cross-worker forwarding with
byte-for-byte verification, SIGKILL crash recovery with warm restart
from the per-worker store shard, metrics aggregation, and graceful
drain.  Worker boots cost ~1 s each, so the lifecycle is packed into
few tests.
"""

import asyncio
import json
import os
import signal
import socket
import sys
from pathlib import Path

import pytest

from repro.fleet import (
    ACCEPT_INHERIT,
    FleetConfig,
    FleetSupervisor,
    http_get,
    pick_accept_mode,
)
from repro.fleet.router import HEADER_FLEET_WORKER
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.serve import (
    LoadGenConfig,
    LoadGenerator,
    ProtocolError,
    read_response,
    serialize_request,
)
from repro.workload.generator import WorkloadSpec, generate_workload

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_prometheus_exposition import check as check_exposition  # noqa: E402

SITE = "www.fleet.example"

#: serve flags forwarded to every worker so the workers and the test's
#: verification twin render the identical synthetic site
WORKER_ARGS = (
    "--site", SITE,
    "--categories", "laptops,desktops",
    "--products", "3",
    "--anon-n", "2",
    "--anon-m", "1",
    "--drain-timeout", "5.0",
)


def make_spec() -> SiteSpec:
    return SiteSpec(
        name=SITE, categories=("laptops", "desktops"), products_per_category=3
    )


def make_workload(requests: int, seed: int):
    return generate_workload(
        [SyntheticSite(make_spec())],
        WorkloadSpec(
            name="fleet",
            requests=requests,
            users=6,
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


def make_config(tmp_path, workers: int = 2, **overrides) -> FleetConfig:
    defaults = dict(
        workers=workers,
        state_dir=str(tmp_path / "state"),
        control_file=str(tmp_path / "fleet.json"),
        worker_args=WORKER_ARGS,
        backoff_base=0.05,
        drain_grace=10.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


async def fetch(host: str, port: int, url: str, user: str):
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        writer.write(serialize_request(request, keep_alive=False))
        await writer.drain()
        parsed = await asyncio.wait_for(read_response(reader), 10.0)
        return parsed.response
    finally:
        writer.close()


async def admin_health(supervisor: FleetSupervisor) -> dict:
    host, port = supervisor.admin_address
    response = await http_get(host, port, "__health__", timeout=5.0)
    assert response.status == 200
    return json.loads(response.body.decode())


async def wait_for(predicate, timeout: float = 20.0, interval: float = 0.1):
    """Poll an async predicate until truthy; fail the test on timeout."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        value = await predicate()
        if value:
            return value
        await asyncio.sleep(interval)
    pytest.fail("condition not reached within timeout")


class TestFleetLifecycle:
    def test_full_lifecycle(self, tmp_path):
        """Boot → verified load through forwarding → SIGKILL crash →
        supervised restart with warm rehydration → aggregated metrics →
        graceful drain with all workers exiting 0."""

        async def main():
            supervisor = FleetSupervisor(make_config(tmp_path, workers=2))
            await supervisor.start()
            try:
                host, port = supervisor.config.host, supervisor.port

                # -- verified load through the shared address ---------------
                workload = make_workload(80, seed=9)
                report = await LoadGenerator(
                    LoadGenConfig(
                        host=host, port=port, concurrency=4, retries=3
                    ),
                    verify_render=make_verify_render(),
                ).run(workload.trace)
                assert report.completed == 80
                assert report.errors == 0
                assert report.verify_failures == 0
                assert report.delta_failures == 0
                assert report.deltas > 0

                # -- every URL has one stable owner -------------------------
                urls = sorted(workload.trace.urls)[:6]
                owners = {}
                for url in urls:
                    first = await fetch(host, port, url, "u1")
                    second = await fetch(host, port, url, "u2")
                    assert first.status == second.status == 200
                    owner = first.headers.get(HEADER_FLEET_WORKER)
                    assert owner is not None
                    assert second.headers.get(HEADER_FLEET_WORKER) == owner
                    owners[url] = owner
                # The partition actually spreads classes: with this site
                # both workers own some of the URLs (deterministic hash).
                assert len(set(owners.values())) == 2, owners

                # -- forwarding happened and is visible in health -----------
                health = await admin_health(supervisor)
                assert health["status"] == "ok"
                fleet_counters = [
                    w["health"]["fleet"] for w in health["workers"]
                ]
                assert sum(c["forwarded"] for c in fleet_counters) > 0
                assert sum(c["served_for_peers"] for c in fleet_counters) > 0

                # -- SIGKILL one worker: supervisor restarts it warm --------
                victim = supervisor.handles[0]
                victim_classes = health["workers"][0]["health"]["engine"][
                    "classes"
                ]
                assert victim_classes > 0
                os.kill(victim.pid, signal.SIGKILL)

                async def restarted():
                    snap = await admin_health(supervisor)
                    worker = snap["workers"][0]
                    return (
                        snap["status"] == "ok"
                        and worker["restarts"] >= 1
                        and worker["up"]
                    ) and snap
                health = await wait_for(restarted)
                engine = health["workers"][0]["health"]["engine"]
                assert engine["store"]["warm_start"] is True
                # Committed classes come back from the shard (classes still
                # mid-anonymization at kill time are legitimately absent).
                assert 1 <= engine["rehydrated_classes"] <= victim_classes

                # -- the restarted worker serves the same bytes -------------
                after = await LoadGenerator(
                    LoadGenConfig(
                        host=host, port=port, concurrency=4, retries=3
                    ),
                    verify_render=make_verify_render(),
                ).run(make_workload(40, seed=17).trace)
                assert after.completed == 40
                assert after.verify_failures == 0
                assert after.errors == 0

                # -- aggregated metrics pass the exposition checker ---------
                admin_host, admin_port = supervisor.admin_address
                metrics = await http_get(
                    admin_host, admin_port, "__metrics__", timeout=5.0
                )
                assert metrics.status == 200
                text = metrics.body.decode()
                assert check_exposition(text) == []
                assert 'repro_fleet_worker_up{worker="0"} 1' in text
                assert "repro_fleet_restarts_total 1" in text
                assert 'worker="1"' in text
            finally:
                report = await supervisor.drain()
            # -- graceful drain: every worker exited 0 ----------------------
            for worker in report["workers"]:
                assert worker["exit_code"] == 0, report
                assert worker["drain_seconds"] is not None
            # Control file removed on drain.
            assert not (tmp_path / "fleet.json").exists()

        asyncio.run(main())

    def test_rolling_restart_keeps_serving(self, tmp_path):
        async def main():
            supervisor = FleetSupervisor(make_config(tmp_path, workers=2))
            await supervisor.start()
            try:
                host, port = supervisor.config.host, supervisor.port
                url = sorted(make_workload(10, seed=3).trace.urls)[0]
                assert (await fetch(host, port, url, "u1")).status == 200
                roll = asyncio.ensure_future(supervisor.roll())
                # The shared address answers throughout the roll.
                while not roll.done():
                    # A worker entering drain closes connections still
                    # waiting for their first request: a reset or EOF is
                    # the same retryable outcome as a 503 (what loadgen
                    # --retries does with both).
                    try:
                        response = await fetch(host, port, url, "u1")
                    except (ConnectionError, ProtocolError):
                        pass
                    else:
                        assert response.status in (200, 503)
                    await asyncio.sleep(0.05)
                await roll
                health = await admin_health(supervisor)
                assert health["status"] == "ok"
                assert all(w["restarts"] == 1 for w in health["workers"])
                assert all(w["last_exit"] == 0 for w in health["workers"])
            finally:
                await supervisor.drain()

        asyncio.run(main())

    def test_inherit_accept_mode_fallback(self, tmp_path, monkeypatch):
        """The parent-acceptor fallback serves without SO_REUSEPORT."""
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        assert pick_accept_mode() == ACCEPT_INHERIT

        async def main():
            supervisor = FleetSupervisor(make_config(tmp_path, workers=2))
            assert supervisor.accept_mode == ACCEPT_INHERIT
            await supervisor.start()
            try:
                health = await admin_health(supervisor)
                assert health["fleet"]["accept_mode"] == ACCEPT_INHERIT
                control = json.loads(Path(supervisor.config.control_file).read_text())
                assert control["accept_mode"] == ACCEPT_INHERIT
                host, port = supervisor.config.host, supervisor.port
                report = await LoadGenerator(
                    LoadGenConfig(
                        host=host, port=port, concurrency=4, retries=3
                    ),
                    verify_render=make_verify_render(),
                ).run(make_workload(30, seed=5).trace)
                assert report.completed == 30
                assert report.errors == 0
                assert report.verify_failures == 0
            finally:
                report = await supervisor.drain()
            assert all(w["exit_code"] == 0 for w in report["workers"])

        asyncio.run(main())
