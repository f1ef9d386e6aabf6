"""Server-side child process of the end-to-end benchmark.

A thin launcher over the public constructors the tests pin
(``repro.serve.build_server``, ``repro.proxy.ProxyHTTPServer``,
``repro.fleet.FleetWorkerConfig``).  Invoked by ``harness.py`` as
``python child.py '<json options>'``; prints one JSON ready line naming the
bound port, serves until its stdin closes (the parent exiting for any
reason closes it), then drains and exits 0.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from repro.core.config import AnonymizationConfig, DeltaServerConfig  # noqa: E402
from repro.fleet import FleetWorkerConfig  # noqa: E402
from repro.origin.site import SiteSpec, SyntheticSite  # noqa: E402
from repro.proxy import ProxyHTTPServer  # noqa: E402
from repro.serve import build_server  # noqa: E402


def site_spec(epoch_seconds: float) -> SiteSpec:
    """The benchmark's one site; the driver's twin origin builds the same."""
    return SiteSpec(
        name=spec.SITE_NAME,
        products_per_category=spec.PRODUCTS_PER_CATEGORY,
        epoch_seconds=epoch_seconds,
    )


def engine_config() -> DeltaServerConfig:
    return DeltaServerConfig(
        anonymization=AnonymizationConfig(
            enabled=True,
            documents=spec.ANON_DOCUMENTS,
            min_count=spec.ANON_MIN_COUNT,
        )
    )


def make_server(options: dict):
    if options["role"] == "proxy":
        return ProxyHTTPServer("127.0.0.1", options["upstream_port"])
    fleet = options.get("fleet")
    return build_server(
        [SyntheticSite(site_spec(options["epoch_seconds"]))],
        config=engine_config(),
        state_dir=options.get("state_dir"),
        fleet=FleetWorkerConfig(
            worker_id=fleet["worker_id"],
            workers=len(fleet["peer_ports"]),
            internal_port=fleet["peer_ports"][fleet["worker_id"]],
            peer_ports=tuple(fleet["peer_ports"]),
        )
        if fleet
        else None,
        max_connections=spec.MAX_CONNECTIONS,
    )


async def serve(options: dict) -> None:
    stop = asyncio.Event()

    def on_stdin() -> None:
        if not sys.stdin.buffer.read1(4096):
            stop.set()

    async with make_server(options) as server:
        asyncio.get_running_loop().add_reader(sys.stdin.fileno(), on_stdin)
        print(json.dumps({"ready": True, "port": server.port}), flush=True)
        await stop.wait()
        asyncio.get_running_loop().remove_reader(sys.stdin.fileno())


if __name__ == "__main__":
    asyncio.run(serve(json.loads(sys.argv[1])))
