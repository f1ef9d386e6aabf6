"""Command-line interface: generate traces, replay them, inspect deltas.

Usage::

    python -m repro.cli trace-gen --requests 2000 --users 20 --out trace.log
    python -m repro.cli replay trace.log
    python -m repro.cli delta base.html current.html
    python -m repro.cli capacity
    python -m repro.cli serve --port 8707
    python -m repro.cli proxy --upstream-port 8707 --port 8708
    python -m repro.cli loadgen trace.log --via-proxy 127.0.0.1:8708

The CLI drives the same public API the examples use; it exists so the
system can be exercised from a shell (and from scripts) without writing
Python.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from pathlib import Path

from repro.core import AnonymizationConfig, DeltaServerConfig
from repro.delta import apply_delta, compress, make_delta
from repro.metrics import fmt_factor, fmt_pct, render_table
from repro.origin import SiteSpec, SyntheticSite, UrlStyle
from repro.simulation import (
    CostModel,
    Simulation,
    SimulationConfig,
    compare_plain_vs_delta,
)
from repro.workload import Trace, WorkloadSpec, analyze_trace, generate_workload

DEFAULT_SITE = "www.shop.example"

DEFAULT_CONTROL_FILE = "fleet.json"


def _install_signal_handlers(loop: asyncio.AbstractEventLoop, handlers) -> None:
    """Wire signal → callback, surviving event loops that can't.

    ``add_signal_handler`` raises off the main thread (tests) and on
    loops without signal support; fall back to ``signal.signal`` so a
    plain ``kill`` still runs the graceful-drain path instead of
    skipping ``engine.close()``'s store shutdown.
    """
    for sig, callback in handlers.items():
        try:
            loop.add_signal_handler(sig, callback)
            continue
        except (NotImplementedError, ValueError, RuntimeError):
            pass
        try:
            signal.signal(
                sig,
                lambda *_args, _cb=callback: loop.call_soon_threadsafe(_cb),
            )
        except (ValueError, OSError):
            pass  # not the main thread: no signal-driven shutdown here


async def _serve_until_stopped(server, max_requests: int | None) -> None:
    """Serve until SIGINT/SIGTERM, or until ``--max-requests`` were handled.

    ``server`` is a live tier (``serve_forever()`` and ``stats.requests``);
    the caller's ``async with`` exit runs the graceful drain afterwards.
    """
    stop = asyncio.Event()
    _install_signal_handlers(
        asyncio.get_running_loop(),
        {signal.SIGINT: stop.set, signal.SIGTERM: stop.set},
    )
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        while not stop.is_set():
            if max_requests is not None and server.stats.requests >= max_requests:
                break
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(stop.wait(), 0.2)
    finally:
        serving.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await serving


def _build_site(args: argparse.Namespace) -> SyntheticSite:
    return SyntheticSite(
        SiteSpec(
            name=args.site,
            url_style=UrlStyle(args.url_style),
            categories=tuple(args.categories.split(",")),
            products_per_category=args.products,
        )
    )


def cmd_trace_gen(args: argparse.Namespace) -> int:
    site = _build_site(args)
    workload = generate_workload(
        [site],
        WorkloadSpec(
            name=Path(args.out).stem,
            requests=args.requests,
            users=args.users,
            duration=args.duration,
            revisit_bias=args.revisit_bias,
            session_urls=args.session_urls,
            seed=args.seed,
        ),
    )
    workload.trace.save(args.out)
    print(
        f"wrote {len(workload.trace)} requests "
        f"({len(workload.trace.users)} users, {len(workload.trace.urls)} URLs) "
        f"to {args.out}"
    )
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace)
    site = _build_site(args)
    config = SimulationConfig(
        verify=args.verify,
        delta=DeltaServerConfig(
            anonymization=AnonymizationConfig(
                documents=args.anon_n, min_count=args.anon_m
            )
        ),
    )
    simulation = Simulation([site], config)
    report = simulation.run(trace)
    bw = report.bandwidth
    print(
        render_table(
            ["metric", "value"],
            [
                ["requests", bw.requests],
                ["direct KB", bw.direct_kb],
                ["sent KB", bw.delta_kb],
                ["savings", fmt_pct(bw.savings)],
                ["reduction", fmt_factor(bw.reduction_factor)],
                ["deltas / fulls", f"{bw.deltas_served} / {bw.full_served}"],
                ["classes", report.classes],
                ["verify failures", report.verify_failures],
            ],
            title=f"replay of {args.trace}",
        )
    )
    return 1 if report.verify_failures else 0


def cmd_delta(args: argparse.Namespace) -> int:
    base = Path(args.base).read_bytes()
    target = Path(args.target).read_bytes()
    payload = make_delta(base, target)
    compressed = compress(payload)
    assert apply_delta(payload, base) == target
    print(f"base      {len(base):>10,} bytes")
    print(f"target    {len(target):>10,} bytes")
    print(f"delta     {len(payload):>10,} bytes ({len(payload) / max(len(target), 1):.1%})")
    print(f"delta.gz  {len(compressed):>10,} bytes ({len(compressed) / max(len(target), 1):.1%})")
    if args.out:
        Path(args.out).write_bytes(compressed)
        print(f"wrote compressed delta to {args.out}")
    return 0


def cmd_trace_stats(args: argparse.Namespace) -> int:
    stats = analyze_trace(Trace.load(args.trace))
    print(
        render_table(
            ["metric", "value"],
            [
                ["requests", stats.requests],
                ["distinct URLs", stats.distinct_urls],
                ["distinct users", stats.distinct_users],
                ["duration", f"{stats.duration:.0f} s"],
                ["request rate", f"{stats.requests_per_second:.2f} req/s"],
                ["top-URL share", f"{stats.top_url_share:.1%}"],
                ["head (top 10% URLs) share", f"{stats.head_share:.1%}"],
                ["Zipf alpha (fit)", f"{stats.zipf_alpha:.2f}"],
                ["requests per (user, URL) pair", f"{stats.requests_per_pair:.1f}"],
            ],
            title=f"trace statistics: {args.trace}",
        )
    )
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    plain, delta = compare_plain_vs_delta(CostModel())
    rows = []
    for estimate in (plain, delta):
        rows.append(
            [
                estimate.name,
                f"{estimate.cpu_capacity_rps:.0f}",
                f"{estimate.capacity_rps:.0f}",
                f"{estimate.sustainable_concurrency:.0f}",
            ]
        )
    print(
        render_table(
            ["configuration", "cpu rps", "capacity rps", "concurrency @ cpu cap"],
            rows,
            title="capacity (paper-calibrated cost model, modem clients)",
        )
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    if args.workers and args.fleet_worker_id is None:
        return cmd_serve_fleet(args)

    from repro.resilience import FaultPlan, ResilienceConfig
    from repro.serve import build_server

    site = _build_site(args)
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(documents=args.anon_n, min_count=args.anon_m),
    )
    fault_plan = (
        FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
        if args.fault_plan
        else None
    )
    resilience = ResilienceConfig(
        enabled=not args.no_resilience,
        retries=args.origin_retries,
        deadline=args.origin_deadline,
        breaker_failure_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
    )
    # -- fleet worker wiring (hidden flags set by the supervisor) --
    fleet_config = None
    listen_sock = None
    if args.fleet_worker_id is not None:
        import socket as socket_module

        from repro.fleet import FleetWorkerConfig

        fleet_config = FleetWorkerConfig(
            worker_id=args.fleet_worker_id,
            workers=args.fleet_size,
            internal_port=args.fleet_internal_port,
            peer_ports=tuple(int(p) for p in args.fleet_peers.split(",")),
        )
        if args.fleet_listen_fd is not None:
            # Parent-acceptor fallback: adopt the supervisor's inherited
            # listening socket instead of binding our own.
            listen_sock = socket_module.socket(fileno=args.fleet_listen_fd)

    async def run() -> int:
        server = build_server(
            [site],
            mode=args.mode,
            config=config,
            fault_plan=fault_plan,
            resilience=resilience,
            executor_kind=args.executor,
            executor_workers=args.executor_workers,
            state_dir=args.state_dir,
            snapshot_every=args.snapshot_every,
            fleet=fleet_config,
            host=args.host,
            port=args.port,
            max_connections=args.max_connections,
            request_timeout=args.request_timeout,
            drain_timeout=args.drain_timeout,
            reuse_port=args.reuse_port,
            listen_sock=listen_sock,
        )
        async with server:
            host, port = server.address
            print(
                f"listening on {host}:{port} "
                f"(mode={args.mode}, slots={args.max_connections})",
                flush=True,
            )
            if server.engine is not None and server.engine.store is not None:
                snap = server.engine.store.snapshot()
                print(
                    f"persistent store: {args.state_dir} "
                    f"(warm_start={server.engine.rehydrated_classes > 0}, "
                    f"rehydrated={server.engine.rehydrated_classes}, "
                    f"recovery_ms={snap.get('recovery_ms', 0)})",
                    flush=True,
                )
            if fault_plan is not None:
                print(f"fault injection: {fault_plan.describe()}", flush=True)
            snapshot_task = None
            if args.metrics_interval:
                async def log_snapshots() -> None:
                    while True:
                        await asyncio.sleep(args.metrics_interval)
                        print(server.stats.snapshot_line(server.clock()), flush=True)

                snapshot_task = asyncio.ensure_future(log_snapshots())
            try:
                await _serve_until_stopped(server, args.max_requests)
            finally:
                if snapshot_task is not None:
                    snapshot_task.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await snapshot_task
            print(server.stats.render(server.clock()), flush=True)
            if server.resilience is not None:
                snapshot = server.resilience.snapshot()
                breaker = snapshot["breaker"]
                policy = snapshot["policy"]
                print(
                    f"origin resilience: breaker={breaker['state']} "
                    f"(opened {breaker['opened']}x, reclosed {breaker['reclosed']}x), "
                    f"retries={policy['retries']}, fast-fails={policy['fast_fails']}",
                    flush=True,
                )
        if server.drain_report is not None:
            drained = server.drain_report
            print(
                f"drain complete: in_flight={drained['in_flight']} "
                f"cancelled={drained['cancelled']} "
                f"seconds={drained['seconds']}",
                flush=True,
            )
        return 0

    return asyncio.run(run())


def _fleet_worker_passthrough(args: argparse.Namespace) -> list[str]:
    """Serve flags forwarded verbatim to every fleet worker's argv."""
    flags = [
        "--site", args.site,
        "--url-style", args.url_style,
        "--categories", args.categories,
        "--products", str(args.products),
        "--mode", args.mode,
        "--max-connections", str(args.max_connections),
        "--request-timeout", str(args.request_timeout),
        "--drain-timeout", str(args.drain_timeout),
        "--executor", args.executor,
        "--origin-retries", str(args.origin_retries),
        "--origin-deadline", str(args.origin_deadline),
        "--breaker-threshold", str(args.breaker_threshold),
        "--breaker-cooldown", str(args.breaker_cooldown),
        "--anon-n", str(args.anon_n),
        "--anon-m", str(args.anon_m),
    ]
    if args.executor_workers is not None:
        flags += ["--executor-workers", str(args.executor_workers)]
    if args.fault_plan:
        flags += ["--fault-plan", args.fault_plan,
                  "--fault-seed", str(args.fault_seed)]
    if args.no_resilience:
        flags.append("--no-resilience")
    if args.snapshot_every is not None:
        flags += ["--snapshot-every", str(args.snapshot_every)]
    if args.metrics_interval:
        flags += ["--metrics-interval", str(args.metrics_interval)]
    return flags


def cmd_serve_fleet(args: argparse.Namespace) -> int:
    """``serve --workers N``: run the supervised multi-process fleet."""
    from repro.fleet import FleetConfig, FleetSupervisor

    config = FleetConfig(
        workers=args.workers,
        host=args.host,
        port=args.port,
        admin_port=args.admin_port,
        # Outer patience: the worker's own graceful drain gets its full
        # budget before the supervisor escalates to SIGKILL.
        drain_grace=args.drain_timeout + 5.0,
        state_dir=args.state_dir,
        control_file=args.control_file or DEFAULT_CONTROL_FILE,
        worker_args=tuple(_fleet_worker_passthrough(args)),
    )

    async def run() -> int:
        supervisor = FleetSupervisor(config)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        handlers = {signal.SIGINT: stop.set, signal.SIGTERM: stop.set}
        sighup = getattr(signal, "SIGHUP", None)
        if sighup is not None:
            handlers[sighup] = lambda: asyncio.ensure_future(supervisor.roll())
        _install_signal_handlers(loop, handlers)
        try:
            await supervisor.start()
        except Exception:
            supervisor.close()
            raise
        print(
            f"fleet listening on {config.host}:{supervisor.port} "
            f"(workers={config.workers}, accept={supervisor.accept_mode}, "
            f"admin=127.0.0.1:{supervisor.admin_address[1]})",
            flush=True,
        )
        stop_task = asyncio.ensure_future(stop.wait())
        drained_task = asyncio.ensure_future(supervisor.run_until_drained())
        await asyncio.wait(
            {stop_task, drained_task}, return_when=asyncio.FIRST_COMPLETED
        )
        stop_task.cancel()
        if not drained_task.done():
            await supervisor.drain()
            await drained_task
        for handle in supervisor.handles:
            print(
                f"fleet worker {handle.worker_id}: exit={handle.last_exit} "
                f"restarts={handle.restarts} "
                f"drain_seconds={handle.last_drain_seconds}",
                flush=True,
            )
        clean = all(handle.last_exit == 0 for handle in supervisor.handles)
        print(f"fleet drained ({'clean' if clean else 'forced'})", flush=True)
        return 0 if clean else 1

    return asyncio.run(run())


def _read_control_file(path: str) -> dict | None:
    import json as _json

    try:
        return _json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None


def cmd_fleet(args: argparse.Namespace) -> int:
    """``fleet status|drain|roll``: control a running fleet."""
    import json as _json

    from repro.fleet import http_get

    control = _read_control_file(args.control_file)
    if control is None:
        print(
            f"fleet {args.fleet_command}: no control file at "
            f"{args.control_file} (is the fleet running?)",
            file=sys.stderr,
        )
        return 1
    admin_host = control["admin_host"]
    admin_port = control["admin_port"]
    endpoint = {
        "status": "__health__",
        "drain": "__drain__",
        "roll": "__roll__",
    }[args.fleet_command]

    async def call() -> int:
        try:
            response = await http_get(
                admin_host, admin_port, endpoint, timeout=5.0
            )
        except Exception as exc:
            # Admin endpoint gone but supervisor maybe alive: fall back
            # to plain signals against the supervisor pid.
            sig = {
                "drain": signal.SIGTERM,
                "roll": getattr(signal, "SIGHUP", signal.SIGTERM),
            }.get(args.fleet_command)
            if sig is None:
                print(f"fleet status: admin unreachable: {exc}", file=sys.stderr)
                return 1
            try:
                import os

                os.kill(control["pid"], sig)
            except (OSError, ProcessLookupError) as kill_exc:
                print(f"fleet {args.fleet_command}: {kill_exc}", file=sys.stderr)
                return 1
            print(f"fleet {args.fleet_command}: signalled pid {control['pid']}")
            return 0
        if args.fleet_command == "status":
            payload = _json.loads(response.body.decode())
            print(_json.dumps(payload, indent=2, sort_keys=True))
            return 0 if payload.get("status") == "ok" else 2
        print(response.body.decode())
        return 0

    result = asyncio.run(call())
    if args.fleet_command == "drain" and getattr(args, "wait", False):
        import os
        import time as time_module

        deadline = time_module.monotonic() + args.timeout
        while time_module.monotonic() < deadline:
            try:
                os.kill(control["pid"], 0)
            except (OSError, ProcessLookupError):
                print("fleet drain: supervisor exited")
                return result
            time_module.sleep(0.2)
        print("fleet drain: supervisor still running after --timeout",
              file=sys.stderr)
        return 1
    return result


def cmd_store(args: argparse.Namespace) -> int:
    """``store inspect|verify``: dump a state directory's pack/journal as
    JSON, or check every stored version (exit 1 names the first bad one)."""
    import json as _json

    from repro.store import StoreError, inspect_state_dir, verify_state_dir

    verb = f"store {args.store_command}"
    if not Path(args.state_dir).is_dir():
        print(f"{verb}: no state directory at {args.state_dir}", file=sys.stderr)
        return 1
    if args.store_command == "inspect":
        dump = inspect_state_dir(args.state_dir)
        print(_json.dumps(dump, indent=None if args.compact else 2, sort_keys=True))
        return 0
    try:
        print(f"{verb}: ok — {verify_state_dir(args.state_dir)}")
    except StoreError as exc:
        print(f"{verb}: FAILED — {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_proxy(args: argparse.Namespace) -> int:
    from repro.proxy import ProxyHTTPServer

    async def run() -> int:
        server = ProxyHTTPServer(
            args.upstream_host,
            args.upstream_port,
            host=args.host,
            port=args.port,
            capacity_bytes=args.capacity_mb * 1024 * 1024,
            ttl=args.ttl if args.ttl > 0 else None,
            max_connections=args.max_connections,
            upstream_connections=args.upstream_connections,
            request_timeout=args.request_timeout,
        )
        async with server:
            host, port = server.address
            print(
                f"proxy listening on {host}:{port} "
                f"(upstream={args.upstream_host}:{args.upstream_port}, "
                f"cache={args.capacity_mb} MiB, "
                f"ttl={args.ttl if args.ttl > 0 else 'off'})",
                flush=True,
            )
            await _serve_until_stopped(server, args.max_requests)
            print(server.render(), flush=True)
        return 0

    return asyncio.run(run())


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad port in {value!r}") from exc


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import LoadGenConfig, LoadGenerator

    trace = Trace.load(args.trace)
    proxy_host, proxy_port = args.via_proxy or (None, None)
    config = LoadGenConfig(
        host=args.host,
        port=args.port,
        proxy_host=proxy_host,
        proxy_port=proxy_port,
        mode=args.mode,
        concurrency=args.concurrency,
        rate=args.rate,
        max_requests=args.requests,
        request_timeout=args.timeout,
        verify=not args.no_verify,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
    )
    report = asyncio.run(LoadGenerator(config).run(trace))
    print(report.render())
    if report.verify_failures:
        return 1
    if args.strict and (
        report.errors
        or report.delta_failures
        or report.rejected
        or report.timeouts
    ):
        return 1
    return 0


def _add_site_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--site", default=DEFAULT_SITE, help="server-part")
    parser.add_argument(
        "--url-style",
        default="path_query",
        choices=[style.value for style in UrlStyle],
    )
    parser.add_argument("--categories", default="laptops,desktops")
    parser.add_argument("--products", type=int, default=5)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("trace-gen", help="generate a synthetic access-log trace")
    _add_site_args(gen)
    gen.add_argument("--requests", type=int, default=1000)
    gen.add_argument("--users", type=int, default=20)
    gen.add_argument("--duration", type=float, default=3600.0)
    gen.add_argument("--revisit-bias", type=float, default=0.6)
    gen.add_argument("--session-urls", action="store_true")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_trace_gen)

    replay = sub.add_parser("replay", help="replay a trace through the architecture")
    _add_site_args(replay)
    replay.add_argument("trace")
    replay.add_argument("--verify", action="store_true", help="byte-verify every response")
    replay.add_argument("--anon-n", type=int, default=3, help="anonymization N")
    replay.add_argument("--anon-m", type=int, default=1, help="anonymization M")
    replay.set_defaults(func=cmd_replay)

    delta = sub.add_parser("delta", help="diff two files with the Vdelta encoder")
    delta.add_argument("base")
    delta.add_argument("target")
    delta.add_argument("--out", help="write the compressed delta here")
    delta.set_defaults(func=cmd_delta)

    stats = sub.add_parser("trace-stats", help="summarize a trace's shape")
    stats.add_argument("trace")
    stats.set_defaults(func=cmd_trace_stats)

    capacity = sub.add_parser("capacity", help="print the capacity comparison")
    capacity.set_defaults(func=cmd_capacity)

    serve = sub.add_parser("serve", help="run the live delta-server over TCP")
    _add_site_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8707, help="0 picks an ephemeral port")
    serve.add_argument("--mode", default="delta", choices=["delta", "plain"])
    serve.add_argument("--max-connections", type=int, default=255,
                       help="connection-slot ceiling (paper: 255)")
    serve.add_argument("--request-timeout", type=float, default=30.0)
    serve.add_argument("--executor", default="thread", choices=["thread", "sync"],
                       help="where delta generation runs")
    serve.add_argument("--executor-workers", type=int, default=None,
                       help="thread-pool size (default: min(64, 4 x cores))")
    serve.add_argument("--fault-plan", default=None,
                       help="structured fault injection, e.g. "
                       "'error:rate=0.1,status=500;latency:delay=0.2,jitter=0.1'")
    serve.add_argument("--fault-seed", type=int, default=23)
    serve.add_argument("--no-resilience", action="store_true",
                       help="disable origin retries/backoff and the circuit breaker")
    serve.add_argument("--origin-retries", type=int, default=2,
                       help="origin retry attempts per request")
    serve.add_argument("--origin-deadline", type=float, default=10.0,
                       help="per-request origin effort budget, seconds")
    serve.add_argument("--breaker-threshold", type=float, default=0.5,
                       help="failure rate that opens the circuit breaker")
    serve.add_argument("--breaker-cooldown", type=float, default=5.0,
                       help="seconds the breaker stays open before probing")
    serve.add_argument("--anon-n", type=int, default=3, help="anonymization N")
    serve.add_argument("--anon-m", type=int, default=1, help="anonymization M")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="exit after serving this many requests")
    serve.add_argument("--metrics-interval", type=float, default=0.0,
                       help="log a one-line stats snapshot every N seconds "
                            "(0 disables)")
    serve.add_argument("--state-dir", default=None,
                       help="persist class state and base-file version chains "
                            "here (pack/journal store); restarts warm-start "
                            "from it instead of re-fetching origins")
    serve.add_argument("--snapshot-every", type=int, default=None,
                       metavar="K",
                       help="store a full base-file snapshot every K versions "
                            "(delta chain length bound; default 8)")
    serve.add_argument("--drain-timeout", type=float, default=5.0,
                       help="graceful-drain budget for in-flight requests "
                            "on shutdown, seconds")
    serve.add_argument("--workers", type=int, default=None,
                       help="run a supervised multi-process worker fleet of "
                            "this size sharing the listen address (classes "
                            "partitioned across workers; crashed workers are "
                            "restarted; SIGTERM drains, SIGHUP rolls)")
    serve.add_argument("--admin-port", type=int, default=0,
                       help="fleet admin endpoint port (aggregated "
                            "/__health__ and /__metrics__; 0 = ephemeral)")
    serve.add_argument("--control-file", default=None,
                       help="fleet control JSON path (default fleet.json; "
                            "the 'fleet' verbs read it)")
    # Hidden flags the fleet supervisor sets when spawning workers.
    serve.add_argument("--fleet-worker-id", type=int, default=None,
                       help=argparse.SUPPRESS)
    serve.add_argument("--fleet-size", type=int, default=None,
                       help=argparse.SUPPRESS)
    serve.add_argument("--fleet-internal-port", type=int, default=None,
                       help=argparse.SUPPRESS)
    serve.add_argument("--fleet-peers", default=None, help=argparse.SUPPRESS)
    serve.add_argument("--fleet-listen-fd", type=int, default=None,
                       help=argparse.SUPPRESS)
    serve.add_argument("--reuse-port", action="store_true",
                       help=argparse.SUPPRESS)
    serve.set_defaults(func=cmd_serve)

    fleet = sub.add_parser(
        "fleet", help="control a running worker fleet (serve --workers N)"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_status = fleet_sub.add_parser(
        "status", help="print the fleet's aggregated health JSON"
    )
    fleet_drain = fleet_sub.add_parser(
        "drain", help="gracefully drain and stop the fleet"
    )
    fleet_drain.add_argument("--wait", action="store_true",
                             help="block until the supervisor has exited")
    fleet_drain.add_argument("--timeout", type=float, default=60.0,
                             help="--wait deadline, seconds")
    fleet_roll = fleet_sub.add_parser(
        "roll", help="rolling restart: one worker at a time, no downtime"
    )
    for fleet_verb in (fleet_status, fleet_drain, fleet_roll):
        fleet_verb.add_argument("--control-file", default=DEFAULT_CONTROL_FILE,
                                help="fleet control JSON written by serve")
        fleet_verb.set_defaults(func=cmd_fleet)

    store = sub.add_parser(
        "store", help="inspect or verify the persistent pack/journal store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="dump a state directory's pack/journal contents as JSON"
    )
    inspect.add_argument("state_dir", help="state directory (serve --state-dir)")
    inspect.add_argument("--compact", action="store_true",
                         help="one-line JSON instead of indented output")
    verify = store_sub.add_parser(
        "verify", help="replay a state directory read-only and check every version"
    )
    verify.add_argument("state_dir", help="state directory (serve --state-dir)")
    store.set_defaults(func=cmd_store)

    proxy = sub.add_parser(
        "proxy", help="run the live caching proxy tier in front of a server"
    )
    proxy.add_argument("--host", default="127.0.0.1")
    proxy.add_argument("--port", type=int, default=8708,
                       help="0 picks an ephemeral port")
    proxy.add_argument("--upstream-host", default="127.0.0.1")
    proxy.add_argument("--upstream-port", type=int, default=8707)
    proxy.add_argument("--capacity-mb", type=int, default=64,
                       help="cache byte budget, MiB")
    proxy.add_argument("--ttl", type=float, default=300.0,
                       help="seconds before a cached entry is revalidated "
                            "upstream (0 disables expiry)")
    proxy.add_argument("--max-connections", type=int, default=255)
    proxy.add_argument("--upstream-connections", type=int, default=16,
                       help="keep-alive connection pool size to the upstream")
    proxy.add_argument("--request-timeout", type=float, default=30.0)
    proxy.add_argument("--max-requests", type=int, default=None,
                       help="exit after proxying this many requests")
    proxy.set_defaults(func=cmd_proxy)

    loadgen = sub.add_parser("loadgen", help="replay a trace against a live server")
    loadgen.add_argument("trace")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=8707)
    loadgen.add_argument("--via-proxy", type=_parse_hostport, default=None,
                         metavar="HOST:PORT",
                         help="connect through a live proxy tier instead of "
                              "directly to the server")
    loadgen.add_argument("--mode", default="closed", choices=["closed", "open"])
    loadgen.add_argument("--concurrency", type=int, default=8)
    loadgen.add_argument("--rate", type=float, default=100.0,
                        help="open loop: Poisson arrival rate, req/s")
    loadgen.add_argument("--requests", type=int, default=None,
                         help="replay at most this many trace records")
    loadgen.add_argument("--timeout", type=float, default=15.0)
    loadgen.add_argument("--no-verify", action="store_true",
                         help="skip client-side body-digest verification")
    loadgen.add_argument("--retries", type=int, default=0,
                         help="retry 502/503/504 this many times with capped backoff")
    loadgen.add_argument("--retry-backoff", type=float, default=0.05,
                         help="base retry backoff, seconds (doubles per attempt)")
    loadgen.add_argument("--strict", action="store_true",
                         help="also exit non-zero on errors, delta failures, "
                              "rejections, or timeouts (CI chaos gates)")
    loadgen.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
