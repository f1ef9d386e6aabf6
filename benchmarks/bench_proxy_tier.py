"""Hierarchical caching benchmark: N clients behind a proxy tier vs. direct.

The Section VI-B scalability argument is that anonymized base-files are
ordinary cachable objects, so "many different users will download the
same base-files from a proxy-cache" — one upstream transfer per base-file
instead of one per client.  This benchmark measures that live:

* one :class:`~repro.serve.server.DeltaHTTPServer` upstream, pre-warmed
  so anonymization is READY before measurement;
* N client populations (one :class:`~repro.serve.loadgen.LoadGenerator`
  each, with its own base-file cache — each models one household/office
  of Fig. 2), replaying disjoint per-user partitions of one trace;
* scenario A (**direct**): every client connects straight to the server;
* scenario B (**proxy**): the same fresh client populations connect
  through one :class:`~repro.proxy.server.ProxyHTTPServer`.

Reported and gated:

* **upstream byte reduction** — wire bytes leaving the server in the
  proxy scenario vs. direct (gate: >= 30% with 8 clients on the full
  run; any reduction in ``--smoke``);
* **base-file hit rate** — proxy cache hits over base-file lookups
  (gate: >= 50% full, > 0 smoke);
* **byte parity**, all verified in the same run: every response in both
  scenarios passes digest / delta-checksum verification plus an
  independent twin-origin re-render at the server-stamped snapshot, and
  every base-file a client ended up holding is re-fetched both directly
  and through the proxy and must be byte-identical.

Results land in ``benchmarks/results/BENCH_proxy.json``.  Run standalone::

    python benchmarks/bench_proxy_tier.py --smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_...py` directly
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.proxy import ProxyHTTPServer
from repro.serve import LoadGenConfig, LoadGenerator, build_server
from repro.serve.protocol import read_response, serialize_request
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.trace import Trace

SITE = "www.tier.example"

DEFAULT_CLIENTS = 8
DEFAULT_REQUESTS = 400
SMOKE_REQUESTS = 120
FULL_REDUCTION_GATE = 0.30  # ISSUE acceptance: >= 30% with 8 clients
FULL_HIT_RATE_GATE = 0.50


def make_spec() -> SiteSpec:
    return SiteSpec(name=SITE, products_per_category=5)


def partition_trace(trace: Trace, clients: int) -> list[Trace]:
    """Split a trace into per-client-population subtraces by user."""
    users = sorted(trace.users)
    owner = {user: i % clients for i, user in enumerate(users)}
    parts: list[list] = [[] for _ in range(clients)]
    for record in trace:
        parts[owner[record.user]].append(record)
    return [
        Trace(name=f"{trace.name}-c{i}", records=records)
        for i, records in enumerate(parts)
    ]


async def fetch_once(host: str, port: int, url: str) -> bytes:
    """One anonymous GET on its own connection; returns the body."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(serialize_request(Request(url=url), keep_alive=False))
        await writer.drain()
        parsed = await asyncio.wait_for(read_response(reader), 15.0)
        if parsed.response.status != 200:
            raise RuntimeError(f"{url}: status {parsed.response.status}")
        return parsed.response.body
    finally:
        writer.close()


async def warm_server(server, spec: SiteSpec) -> None:
    """Drive anonymization to READY for every page before measuring."""
    site = server.gateway.origin.site(SITE)
    config = LoadGenConfig(
        host=server.address[0], port=server.address[1], concurrency=4, verify=True
    )
    warm = Trace(
        name="warm",
        records=[],
    )
    from repro.workload.trace import TraceRecord

    stamp = 0.0
    for url in sorted(site.url_for(page) for page in site.all_pages()):
        for user in ("warm-a", "warm-b", "warm-c"):
            warm.records.append(TraceRecord(timestamp=stamp, user=user, url=url))
            stamp += 0.01
    report = await LoadGenerator(config).run(warm)
    if report.errors or report.verify_failures:
        raise RuntimeError(f"warm-up failed: {report.render()}")


def make_verify(spec: SiteSpec):
    twin = OriginServer([SyntheticSite(spec)])

    def verify(url: str, user: str, served_at: float) -> bytes:
        return twin.handle(
            Request(url=url, cookies={"uid": user}, client_id=user), served_at
        ).body

    return verify


async def run_clients(
    subtraces: list[Trace],
    spec: SiteSpec,
    connect: tuple[str, int],
) -> tuple[list, list[LoadGenerator]]:
    """Run one client population per subtrace, all concurrently, each
    connecting to ``connect`` (the server or the proxy in front of it)."""
    host, port = connect
    generators = [
        LoadGenerator(
            LoadGenConfig(
                host=host,
                port=port,
                concurrency=2,
                verify=True,
                seed=100 + i,
            ),
            verify_render=make_verify(spec),
        )
        for i in range(len(subtraces))
    ]
    reports = await asyncio.gather(
        *(gen.run(sub) for gen, sub in zip(generators, subtraces))
    )
    return list(reports), generators


def summarize_reports(reports: list) -> dict:
    return {
        "requests": sum(r.requests for r in reports),
        "completed": sum(r.completed for r in reports),
        "deltas": sum(r.deltas for r in reports),
        "fulls": sum(r.fulls for r in reports),
        "base_fetches": sum(r.base_fetches for r in reports),
        "base_bytes": sum(r.base_bytes for r in reports),
        "wire_bytes_in": sum(r.wire_bytes_in for r in reports),
        "wire_bytes_out": sum(r.wire_bytes_out for r in reports),
        "errors": sum(r.errors for r in reports),
        "verify_failures": sum(r.verify_failures for r in reports),
        "delta_failures": sum(r.delta_failures for r in reports),
    }


async def run_experiment(clients: int, requests: int, seed: int) -> dict:
    spec = make_spec()
    workload = generate_workload(
        [SyntheticSite(spec)],
        WorkloadSpec(name="proxy-tier", requests=requests, users=clients, seed=seed),
    )
    subtraces = partition_trace(workload.trace, clients)
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
    )
    async with build_server([SyntheticSite(spec)], config=config) as server:
        await warm_server(server, spec)

        # Scenario A: every client population talks straight to the server.
        bytes_out_before = server.stats.bytes_out
        direct_reports, _ = await run_clients(subtraces, spec, server.address)
        direct_upstream_wire = server.stats.bytes_out - bytes_out_before
        direct = summarize_reports(direct_reports)
        direct["upstream_wire_bytes"] = direct_upstream_wire

        # Scenario B: fresh, identical populations behind one proxy tier.
        async with ProxyHTTPServer(*server.address) as proxy:
            proxy_reports, generators = await run_clients(
                subtraces, spec, proxy.address
            )
            via = summarize_reports(proxy_reports)
            via["upstream_wire_bytes"] = proxy.stats.upstream_wire_bytes

            # Byte parity: every base-file any client holds must read
            # byte-identical directly and through the proxy.
            held = sorted(
                {ref for gen in generators for ref in gen.held_base_refs()}
            )
            parity_checked = 0
            for ref in held:
                url = f"{SITE}/__delta_base__/{ref}"
                direct_body = await fetch_once(*server.address, url)
                proxied_body = await fetch_once(*proxy.address, url)
                assert direct_body == proxied_body, f"parity broken for {ref}"
                parity_checked += 1

            cache = proxy.cache.stats
            base_lookups = cache.hits + cache.insertions + cache.replacements
            hit_rate = cache.hits / base_lookups if base_lookups else 0.0
            proxy_stats = {
                "requests": proxy.stats.requests,
                "upstream_requests": proxy.stats.upstream_requests,
                "upstream_wire_bytes": proxy.stats.upstream_wire_bytes,
                "downstream_wire_bytes": proxy.serve_stats.bytes_out,
                "upstream_body_bytes": proxy.stats.upstream_bytes,
                "downstream_body_bytes": proxy.stats.downstream_bytes,
                "cache_hits": cache.hits,
                "cache_misses": cache.misses,
                "cache_insertions": cache.insertions,
                "base_file_hit_rate": round(hit_rate, 4),
                "hit_bytes": cache.hit_bytes,
            }
            conservation = (
                proxy.stats.downstream_bytes >= proxy.stats.upstream_bytes
            )

    reduction = (
        1.0 - via["upstream_wire_bytes"] / direct["upstream_wire_bytes"]
        if direct["upstream_wire_bytes"]
        else 0.0
    )
    clean = all(
        s["errors"] == s["verify_failures"] == s["delta_failures"] == 0
        and s["completed"] == s["requests"]
        for s in (direct, via)
    )
    return {
        "workload": {
            "clients": clients,
            "requests": requests,
            "users": clients,
            "seed": seed,
        },
        "direct": direct,
        "via_proxy": via,
        "proxy": proxy_stats,
        "upstream_byte_reduction": round(reduction, 4),
        "byte_parity": {
            "base_files_compared": parity_checked,
            "identical": True,  # asserted above; reaching here means it held
            "every_response_verified": clean,
            "downstream_ge_upstream": conservation,
        },
    }


def run_benchmark(
    clients: int = DEFAULT_CLIENTS,
    requests: int = DEFAULT_REQUESTS,
    smoke: bool = False,
    seed: int = 42,
) -> dict:
    if smoke:
        requests = min(requests, SMOKE_REQUESTS)
    result = asyncio.run(run_experiment(clients, requests, seed))
    reduction_gate = 0.0 if smoke else FULL_REDUCTION_GATE
    hit_gate = 0.0 if smoke else FULL_HIT_RATE_GATE
    result["gates"] = {
        "reduction_gate": reduction_gate,
        "hit_rate_gate": hit_gate,
        "smoke": smoke,
        "passed": (
            result["upstream_byte_reduction"] > reduction_gate
            and result["proxy"]["base_file_hit_rate"] > hit_gate
            and result["byte_parity"]["every_response_verified"]
            and result["byte_parity"]["downstream_ge_upstream"]
        ),
    }
    return result


def render(result: dict) -> str:
    direct, via, proxy = result["direct"], result["via_proxy"], result["proxy"]
    gates = result["gates"]
    lines = [
        f"workload: {result['workload']}",
        "",
        f"{'scenario':<12} {'completed':>10} {'deltas':>7} {'base fetches':>13} "
        f"{'upstream wire B':>16}",
    ]
    for name, s in (("direct", direct), ("via proxy", via)):
        lines.append(
            f"{name:<12} {s['completed']:>10} {s['deltas']:>7} "
            f"{s['base_fetches']:>13} {s['upstream_wire_bytes']:>16,}"
        )
    lines += [
        "",
        f"proxy: {proxy['cache_hits']} hits / {proxy['cache_insertions']} "
        f"insertions (base-file hit rate {proxy['base_file_hit_rate']:.1%}), "
        f"{proxy['hit_bytes']:,} B served from cache",
        f"upstream byte reduction: {result['upstream_byte_reduction']:.1%} "
        f"(gate {gates['reduction_gate']:.0%})",
        f"byte parity: {result['byte_parity']['base_files_compared']} base-files "
        f"identical direct vs proxied; all responses verified: "
        f"{result['byte_parity']['every_response_verified']}",
        f"gate: {'PASS' if gates['passed'] else 'FAIL'}",
    ]
    return "\n".join(lines)


def bench_proxy_tier(benchmark) -> None:
    """Pytest-benchmark entry point (smoke-sized)."""
    from _util import emit, once

    result = once(benchmark, lambda: run_benchmark(smoke=True))
    emit("proxy_tier", render(result))
    out = Path(__file__).parent / "results" / "BENCH_proxy.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    assert result["gates"]["passed"], render(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=DEFAULT_CLIENTS)
    parser.add_argument("--requests", type=int, default=DEFAULT_REQUESTS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small run; gates relax to 'any reduction, any hits'",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_proxy.json",
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        clients=args.clients, requests=args.requests, smoke=args.smoke,
        seed=args.seed,
    )
    print(render(result))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    if not result["gates"]["passed"]:
        print("FAIL: proxy tier gates not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
