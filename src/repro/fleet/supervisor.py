"""The fleet supervisor: spawn, watch, restart, drain N delta-server workers.

One supervisor process owns the fleet lifecycle:

* **Shared listen address** — every worker binds the same ``host:port``.
  Where the kernel supports it this is ``SO_REUSEPORT`` (the supervisor
  holds a bound-but-*not*-listening reservation socket so the port
  survives windows where every worker is mid-restart); otherwise the
  supervisor opens the listening socket itself and workers inherit the
  fd (classic pre-fork accept sharing).
* **Crash recovery** — each worker runs under a supervise loop: on exit
  it is restarted with exponential backoff (reset after a stable
  uptime), and with ``--state-dir`` each worker warm-restarts from its
  own store shard (``state/worker-<k>``) — the partition map is
  deterministic for a fixed fleet size, so a shard always rehydrates in
  the worker that owns its classes.
* **Graceful drain** — SIGTERM/SIGINT drains the fleet: workers get
  SIGTERM (stop accepting, finish in-flight under the worker's drain
  deadline, flush the store, exit 0); a worker that overstays its
  deadline is SIGKILLed.  SIGHUP rolls the fleet: one worker at a time
  is drained and respawned, waiting for readiness between workers, so
  the listen address never goes dark.
* **Aggregation** — a loopback admin endpoint serves fleet-wide
  ``/__health__`` (per-worker liveness, restart counts, drain timings,
  partition map) and ``/__metrics__`` (every worker's exposition
  relabeled with ``worker="k"`` plus supervisor-level series).
* **Control file** — ``fleet.json`` (pids, ports, admin address) so
  ``repro.cli fleet status|drain|roll`` and CI can find the fleet.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket
import sys
from dataclasses import dataclass, field
from pathlib import Path

from repro.fleet.aggregate import merge_expositions
from repro.fleet.partition import PartitionMap
from repro.http.messages import Request, Response
from repro.metrics import counter, family_lines, stats_lines
from repro.serve.aio import HEALTH_PATH, METRICS_PATH, ConnectionPool, ServerShell
from repro.url.parts import split_server

ACCEPT_REUSEPORT = "reuseport"
ACCEPT_INHERIT = "inherit"


#: uptime, seconds, after which a worker's restart backoff resets
STABLE_AFTER = 3.0
#: how long a spawned worker may take to answer its health probe, seconds
READINESS_TIMEOUT = 30.0


def pick_accept_mode() -> str:
    """The accept-sharing mode this platform supports: SO_REUSEPORT where
    the socket module has it, the inherited parent socket otherwise."""
    return ACCEPT_REUSEPORT if hasattr(socket, "SO_REUSEPORT") else ACCEPT_INHERIT


def _allocate_port(host: str) -> int:
    """An ephemeral port that was free a moment ago (loopback services)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        probe.bind((host, 0))
        return probe.getsockname()[1]


async def http_get(
    host: str, port: int, path: str, *, timeout: float = 2.0
) -> Response:
    """One-shot loopback GET (readiness probes, scrapes, CLI verbs)."""
    request = Request(url=f"{host}:{port}/{path.lstrip('/')}")
    pool = ConnectionPool(host, port, max_parked=0)
    return (await asyncio.wait_for(pool.exchange(request), timeout)).response


@dataclass(slots=True)
class FleetConfig:
    """Everything the supervisor needs to run a fleet."""

    workers: int
    host: str = "127.0.0.1"
    port: int = 0
    admin_port: int = 0
    #: per-worker graceful-drain budget before SIGKILL (worker-side close
    #: uses its own drain_timeout; this is the supervisor's outer patience)
    drain_grace: float = 10.0
    backoff_base: float = 0.1
    backoff_cap: float = 5.0
    state_dir: str | None = None
    control_file: str | None = None
    #: pass-through CLI flags appended to every worker's serve argv
    worker_args: tuple[str, ...] = ()
    vnodes: int | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass(slots=True)
class WorkerHandle:
    """Supervisor-side state for one worker slot."""

    worker_id: int
    internal_port: int
    process: asyncio.subprocess.Process | None = None
    state: str = "starting"  # starting | up | restarting | draining | stopped
    restarts: int = 0
    last_exit: int | None = None
    last_drain_seconds: float | None = None
    started_at: float = 0.0
    ready: asyncio.Event = field(default_factory=asyncio.Event)
    #: set while a rolling restart intentionally stops this worker
    rolling: bool = False

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.returncode is None


@dataclass(slots=True)
class FleetStats:
    """Supervisor-level counters (single event loop)."""

    restarts: int = counter("worker respawns, crash recovery and rolls alike")
    scrape_failures: int = counter("worker health/metrics scrapes that failed")


class FleetSupervisor:
    """Own the worker processes of one fleet (see module docstring)."""

    def __init__(self, config: FleetConfig) -> None:
        self.config = config
        self.accept_mode = pick_accept_mode()
        self.partition = (
            PartitionMap(config.workers, config.vnodes)
            if config.vnodes
            else PartitionMap(config.workers)
        )
        self.handles: list[WorkerHandle] = []
        self.stats = FleetStats()
        self._reserve_sock: socket.socket | None = None
        self._listen_sock: socket.socket | None = None
        self._port: int | None = None
        #: loopback admin endpoint (aggregated health/metrics, drain, roll)
        self.admin = ServerShell(
            self._handle_admin,
            health=self._health,
            metrics_lines=self._metrics_lines,
            port=config.admin_port,
        )
        #: drains/rolls started from the admin endpoint (kept referenced)
        self._admin_verbs: set[asyncio.Task] = set()
        self._supervise_tasks: list[asyncio.Task] = []
        self._pump_tasks: list[asyncio.Task] = []
        self._draining = False
        self._drain_done = asyncio.Event()
        self._roll_lock = asyncio.Lock()

    @property
    def restarts_total(self) -> int:
        return self.stats.restarts

    # -- addresses -------------------------------------------------------------

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("fleet not started")
        return self._port

    @property
    def admin_address(self) -> tuple[str, int]:
        return self.admin.address

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the shared address, spawn every worker, wait for readiness."""
        config = self.config
        if self.accept_mode == ACCEPT_REUSEPORT:
            # Reservation socket: bound (never listening) so the port stays
            # ours even in the window where every worker is down.
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            sock.bind((config.host, config.port))
            self._reserve_sock = sock
            self._port = sock.getsockname()[1]
        else:
            # Parent-acceptor fallback: one listening socket, inherited by
            # every worker (they accept; the supervisor never does).
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((config.host, config.port))
            sock.listen(256)
            sock.set_inheritable(True)
            self._listen_sock = sock
            self._port = sock.getsockname()[1]
        internal_ports = [_allocate_port("127.0.0.1") for _ in range(config.workers)]
        self.handles = [
            WorkerHandle(worker_id=k, internal_port=internal_ports[k])
            for k in range(config.workers)
        ]
        if config.state_dir:
            for handle in self.handles:
                self._shard_dir(handle.worker_id).mkdir(parents=True, exist_ok=True)
        await self.admin.start()
        self._supervise_tasks = [
            asyncio.ensure_future(self._supervise(handle)) for handle in self.handles
        ]
        await asyncio.wait_for(
            asyncio.gather(*(handle.ready.wait() for handle in self.handles)),
            READINESS_TIMEOUT,
        )
        self._write_control_file()

    async def run_until_drained(self) -> None:
        await self._drain_done.wait()

    async def drain(self) -> dict:
        """SIGTERM every worker, wait for graceful exits, report timings."""
        self._draining = True
        for handle in self.handles:
            handle.state = "draining"
        await asyncio.gather(
            *(self._drain_worker(handle) for handle in self.handles)
        )
        for task in self._supervise_tasks:
            task.cancel()
        await asyncio.gather(*self._supervise_tasks, return_exceptions=True)
        await asyncio.gather(*self._pump_tasks, return_exceptions=True)
        await self.admin.close()
        self._close_sockets()
        self._remove_control_file()
        self._drain_done.set()
        return {
            "workers": [
                {
                    "worker": handle.worker_id,
                    "exit_code": handle.last_exit,
                    "drain_seconds": handle.last_drain_seconds,
                }
                for handle in self.handles
            ],
        }

    async def roll(self) -> None:
        """Rolling restart: drain + respawn one worker at a time."""
        async with self._roll_lock:
            for handle in self.handles:
                if self._draining:
                    return
                handle.rolling = True
                handle.state = "restarting"
                await self._drain_worker(handle)
                # The supervise loop notices the exit, sees ``rolling``,
                # and respawns without backoff; wait for readiness so at
                # most one worker is ever down.
                await asyncio.wait_for(
                    handle.ready.wait(), READINESS_TIMEOUT
                )
            self._write_control_file()

    async def _drain_worker(self, handle: WorkerHandle) -> None:
        process = handle.process
        if process is None or process.returncode is not None:
            return
        handle.ready.clear()
        loop = asyncio.get_running_loop()
        started = loop.time()
        with contextlib.suppress(ProcessLookupError):
            process.send_signal(signal.SIGTERM)
        try:
            await asyncio.wait_for(process.wait(), self.config.drain_grace)
        except asyncio.TimeoutError:
            with contextlib.suppress(ProcessLookupError):
                process.kill()
            await process.wait()
        handle.last_drain_seconds = round(loop.time() - started, 4)
        handle.last_exit = process.returncode

    def close(self) -> None:
        """Hard stop (tests/atexit): kill anything still running."""
        for handle in self.handles:
            if handle.alive:
                with contextlib.suppress(ProcessLookupError):
                    handle.process.kill()
        for task in self._supervise_tasks + self._pump_tasks:
            task.cancel()
        self._close_sockets()
        self._remove_control_file()

    def _close_sockets(self) -> None:
        for sock in (self._reserve_sock, self._listen_sock):
            if sock is not None:
                with contextlib.suppress(OSError):
                    sock.close()
        self._reserve_sock = self._listen_sock = None

    # -- worker processes ------------------------------------------------------

    def _shard_dir(self, worker_id: int) -> Path:
        assert self.config.state_dir is not None
        return Path(self.config.state_dir) / f"worker-{worker_id}"

    def _worker_argv(self, handle: WorkerHandle) -> list[str]:
        config = self.config
        peers = ",".join(str(h.internal_port) for h in self.handles)
        argv = [
            sys.executable, "-m", "repro.cli", "serve",
            "--host", config.host,
            "--port", str(self.port),
            "--fleet-worker-id", str(handle.worker_id),
            "--fleet-size", str(config.workers),
            "--fleet-internal-port", str(handle.internal_port),
            "--fleet-peers", peers,
        ]
        if self.accept_mode == ACCEPT_REUSEPORT:
            argv.append("--reuse-port")
        else:
            assert self._listen_sock is not None
            argv += ["--fleet-listen-fd", str(self._listen_sock.fileno())]
        if config.state_dir:
            argv += ["--state-dir", str(self._shard_dir(handle.worker_id))]
        argv += list(config.worker_args)
        return argv

    async def _spawn(self, handle: WorkerHandle) -> None:
        env = dict(os.environ)
        # Workers must import repro the same way the supervisor did,
        # whatever the caller's PYTHONPATH said.
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        existing = env.get("PYTHONPATH", "")
        if src not in existing.split(os.pathsep):
            env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        kwargs: dict = {
            "stdout": asyncio.subprocess.PIPE,
            "stderr": asyncio.subprocess.STDOUT,
            "env": env,
        }
        if self._listen_sock is not None:
            kwargs["pass_fds"] = (self._listen_sock.fileno(),)
        handle.process = await asyncio.create_subprocess_exec(
            *self._worker_argv(handle), **kwargs
        )
        handle.started_at = asyncio.get_running_loop().time()
        pump = asyncio.ensure_future(self._pump_output(handle))
        self._pump_tasks.append(pump)
        self._pump_tasks = [t for t in self._pump_tasks if not t.done()]

    async def _pump_output(self, handle: WorkerHandle) -> None:
        process = handle.process
        assert process is not None and process.stdout is not None
        prefix = f"[w{handle.worker_id}] "
        while True:
            line = await process.stdout.readline()
            if not line:
                return
            print(prefix + line.decode(errors="replace").rstrip(), flush=True)

    async def _wait_ready(self, handle: WorkerHandle) -> bool:
        """Poll the worker's internal health endpoint until it answers."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + READINESS_TIMEOUT
        while loop.time() < deadline:
            if not handle.alive:
                return False
            try:
                response = await http_get(
                    "127.0.0.1", handle.internal_port, HEALTH_PATH, timeout=1.0
                )
            except Exception:
                await asyncio.sleep(0.05)
                continue
            if response.status == 200:
                return True
            await asyncio.sleep(0.05)
        return False

    async def _supervise(self, handle: WorkerHandle) -> None:
        """Spawn-watch-restart loop for one worker slot."""
        loop = asyncio.get_running_loop()
        backoff = self.config.backoff_base
        while not self._draining:
            handle.state = "starting"
            await self._spawn(handle)
            if await self._wait_ready(handle):
                handle.state = "up"
                handle.rolling = False
                handle.ready.set()
                self._write_control_file()
            assert handle.process is not None
            returncode = await handle.process.wait()
            handle.ready.clear()
            handle.last_exit = returncode
            uptime = loop.time() - handle.started_at
            if self._draining:
                break
            if handle.rolling:
                # Intentional stop (rolling restart): respawn immediately.
                handle.restarts += 1
                self.stats.restarts += 1
                continue
            handle.state = "restarting"
            if uptime >= STABLE_AFTER:
                backoff = self.config.backoff_base
            print(
                f"[fleet] worker {handle.worker_id} exited rc={returncode} "
                f"after {uptime:.1f}s; restarting in {backoff:.2f}s",
                flush=True,
            )
            await asyncio.sleep(backoff)
            backoff = min(backoff * 2, self.config.backoff_cap)
            handle.restarts += 1
            self.stats.restarts += 1
        handle.state = "stopped"

    # -- control file ----------------------------------------------------------

    def _write_control_file(self) -> None:
        if not self.config.control_file or self._port is None:
            return
        payload = {
            "pid": os.getpid(),
            "host": self.config.host,
            "port": self._port,
            "admin_host": "127.0.0.1",
            "admin_port": self.admin.port,
            "accept_mode": self.accept_mode,
            "workers": [
                {
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "internal_port": handle.internal_port,
                }
                for handle in self.handles
            ],
        }
        path = Path(self.config.control_file)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
        tmp.replace(path)

    def _remove_control_file(self) -> None:
        if self.config.control_file:
            with contextlib.suppress(OSError):
                Path(self.config.control_file).unlink()

    # -- aggregation (admin endpoint) -----------------------------------------

    async def _handle_admin(self, request: Request) -> Response:
        """The control verbs (health and metrics are the shell's routes)."""
        _, remainder = split_server(request.url)
        # Answer first, then act — the caller's connection survives to
        # read the acknowledgement.
        if remainder == "__drain__":
            self._start_verb(self.drain())
            return Response(status=202, body=b'{"draining": true}')
        if remainder == "__roll__":
            self._start_verb(self.roll())
            return Response(status=202, body=b'{"rolling": true}')
        return Response(status=404, body=b"unknown fleet endpoint")

    def _start_verb(self, verb) -> None:
        task = asyncio.ensure_future(verb)
        self._admin_verbs.add(task)
        task.add_done_callback(self._admin_verbs.discard)

    async def _scrape(self, handle: WorkerHandle, path: str) -> Response | None:
        if not handle.alive or not handle.ready.is_set():
            return None
        try:
            return await http_get(
                "127.0.0.1", handle.internal_port, path, timeout=2.0
            )
        except Exception:
            self.stats.scrape_failures += 1
            return None

    async def _health(self) -> dict:
        scrapes = await asyncio.gather(
            *(self._scrape(handle, HEALTH_PATH) for handle in self.handles)
        )
        workers = []
        alive = 0
        healthy = not self._draining
        for handle, scraped in zip(self.handles, scrapes):
            worker_health = None
            if scraped is not None and scraped.status == 200:
                with contextlib.suppress(ValueError):
                    worker_health = json.loads(scraped.body.decode())
            up = handle.alive and worker_health is not None
            alive += up
            if not up or worker_health.get("status") != "ok":
                healthy = False
            workers.append(
                {
                    "worker": handle.worker_id,
                    "pid": handle.pid,
                    "state": handle.state,
                    "up": up,
                    "restarts": handle.restarts,
                    "internal_port": handle.internal_port,
                    "last_exit": handle.last_exit,
                    "last_drain_seconds": handle.last_drain_seconds,
                    "health": worker_health,
                }
            )
        return {
            "status": (
                "draining" if self._draining
                else "ok" if healthy
                else "degraded"
            ),
            "fleet": {
                "workers": self.config.workers,
                "alive": alive,
                "restarts_total": self.restarts_total,
                "accept_mode": self.accept_mode,
                "port": self._port,
                "partition": self.partition.snapshot(),
            },
            "workers": workers,
        }

    async def _metrics_lines(self) -> list[str]:
        scrapes = await asyncio.gather(
            *(self._scrape(handle, METRICS_PATH) for handle in self.handles)
        )
        parts = {
            handle.worker_id: scraped.body.decode()
            for handle, scraped in zip(self.handles, scrapes)
            if scraped is not None and scraped.status == 200
        }
        extra = stats_lines(
            self.stats,
            "repro_fleet_",
            gauges={
                "workers": self.config.workers,
                "workers_alive": sum(h.alive for h in self.handles),
            },
        )
        for kind, name, read in (
            ("gauge", "repro_fleet_worker_up", lambda h: int(h.alive)),
            ("counter", "repro_fleet_worker_restarts_total", lambda h: h.restarts),
            ("gauge", "repro_fleet_worker_drain_seconds",
             lambda h: h.last_drain_seconds),
        ):
            per_worker = {h.worker_id: read(h) for h in self.handles}
            extra += family_lines(kind, name, per_worker, label="worker")
        return merge_expositions(parts, "\n".join(extra)).splitlines()
