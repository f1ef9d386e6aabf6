"""Boot, observe and stop the server-side child processes of one workload.

Everything here looks at the servers from outside: ``/proc`` CPU clocks
and peak RSS, ``/__metrics__`` scrapes.  A :class:`Stack` is one booted
topology; ``entry_ports[k]`` is where driver connection *k* connects.
"""

from __future__ import annotations

import contextlib
import json
import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import spec
from repro.fleet import http_get

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
BOOT_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0
_TICKS = os.sysconf("SC_CLK_TCK")


class BenchmarkAbort(Exception):
    """A validity guard tripped: the run is abandoned, not reported."""


@dataclass
class Child:
    role: str
    proc: subprocess.Popen
    port: int

    def cpu_seconds(self) -> float:
        """user+sys CPU of the process (all threads) from ``/proc/<pid>/stat``."""
        raw = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = raw.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchmarkAbort(f"no VmHWM for {self.role} pid {self.proc.pid}")


def _spawn(options: dict) -> Child:
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(options)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
    )
    assert proc.stdout is not None
    ready, _, _ = select.select([proc.stdout], [], [], BOOT_TIMEOUT)
    line = proc.stdout.readline() if ready else b""
    if not line:
        proc.kill()
        proc.wait()
        raise BenchmarkAbort(f"{options['role']} child did not come up")
    return Child(options["role"], proc, json.loads(line)["port"])


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@dataclass
class Stack:
    """One workload's processes: delta-server(s) and, maybe, a proxy."""

    workload: spec.Workload
    servers: list[Child] = field(default_factory=list)
    proxy: Child | None = None
    entry_ports: list[int] = field(default_factory=list)
    state_dir: Path | None = None

    @property
    def children(self) -> list[Child]:
        return self.servers + ([self.proxy] if self.proxy else [])

    @classmethod
    def boot(cls, workload: spec.Workload) -> "Stack":
        stack = cls(workload)
        try:
            stack._boot()
        except BaseException:
            with contextlib.suppress(BenchmarkAbort):  # keep the first error
                stack.stop()
            raise
        return stack

    def _boot(self) -> None:
        workload = self.workload
        options: dict = {
            "role": "delta",
            "epoch_seconds": spec.CHURN_EPOCH if workload.churn else spec.STEADY_EPOCH,
        }
        if workload.state_dir:
            OUT_DIR.mkdir(exist_ok=True)
            self.state_dir = Path(tempfile.mkdtemp(prefix="state-", dir=OUT_DIR))
            options["state_dir"] = str(self.state_dir)
        if workload.topology == "fleet":
            peers = [_free_port() for _ in range(2)]
            for worker_id in range(2):
                fleet = {"worker_id": worker_id, "peer_ports": peers}
                self.servers.append(_spawn({**options, "fleet": fleet}))
            # connection k is pinned to worker k's internal port: the same
            # handler as the public port, without SO_REUSEPORT's coin flip
            self.entry_ports = peers
            return
        self.servers.append(_spawn(options))
        self.entry_ports = [self.servers[0].port]
        if workload.topology == "proxy":
            self.proxy = _spawn(
                {"role": "proxy", "upstream_port": self.servers[0].port}
            )
            self.entry_ports = [self.proxy.port]

    def check_alive(self) -> None:
        for child in self.children:
            if child.proc.poll() is not None:
                raise BenchmarkAbort(
                    f"{child.role} child exited early (code {child.proc.returncode})"
                )

    def stop(self, *, keep_state: bool = False) -> None:
        """Close every child's stdin, wait for a clean exit, kill stragglers.

        All children are told before any is waited for: each counts the
        others' parked keep-alive connections as in-flight work, so
        draining them one after another would wait out a drain timeout.
        """
        clean = True
        for child in self.children:
            assert child.proc.stdin is not None
            child.proc.stdin.close()
        for child in self.children:
            try:
                child.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                child.proc.kill()
                child.proc.wait()
            clean = clean and child.proc.returncode == 0
            assert child.proc.stdout is not None
            child.proc.stdout.close()
        self.servers, self.proxy = [], None
        if self.state_dir is not None and not keep_state:
            shutil.rmtree(self.state_dir, ignore_errors=True)
            self.state_dir = None
        if not clean:
            raise BenchmarkAbort("a child did not shut down cleanly")


def parse_exposition(text: str) -> dict[str, float]:
    """Prometheus text -> ``{"name{labels}": value}`` (buckets skipped)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line[0] == "#" or "_bucket{" in line:
            continue
        key, _, value = line.rpartition(" ")
        values[key] = float(value)
    return values


async def scrape(children: list[Child]) -> dict[str, float]:
    """``/__metrics__`` of every child, summed series by series."""
    total: dict[str, float] = {}
    for child in children:
        response = await http_get("127.0.0.1", child.port, "/__metrics__", timeout=10.0)
        for key, value in parse_exposition(response.body.decode()).items():
            total[key] = total.get(key, 0.0) + value
    return total


@dataclass
class Observation:
    """Outside view of the stack at one instant (diff two for a phase)."""

    at: float
    cpu: dict[int, float]  # pid -> CPU seconds
    client_cpu: float
    server_metrics: dict[str, float]
    proxy_metrics: dict[str, float]


async def observe(stack: Stack, *, scrapes: bool) -> Observation:
    stack.check_alive()
    return Observation(
        at=time.perf_counter(),
        cpu={c.proc.pid: c.cpu_seconds() for c in stack.children},
        client_cpu=time.process_time(),
        server_metrics=await scrape(stack.servers) if scrapes else {},
        proxy_metrics=(
            await scrape([stack.proxy]) if scrapes and stack.proxy else {}
        ),
    )
