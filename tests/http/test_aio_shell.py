"""The :class:`~repro.serve.aio.ServerShell` contract, checked on every tier.

Delta-server and proxy subclass one shell and the fleet supervisor's
admin endpoint owns one, so one suite pins the shared behaviour through
each tier's *public constructor*: connection slots and 503 rejection,
4xx on malformed framing, 500 on a raising handler, 504 on a slow one,
idempotent close, keep-alive, and the idle-aware drain.
"""

import asyncio
import contextlib
import gc
import signal
import socket
import struct
from dataclasses import dataclass
from typing import Awaitable, Callable

import pytest

from repro.fleet import FleetConfig, FleetSupervisor
from repro.http.messages import Request, Response
from repro.origin.site import SiteSpec, SyntheticSite
from repro.proxy import ProxyHTTPServer
from repro.resilience.faults import FaultPlan, FaultRule
from repro.serve import (
    build_server,
    read_request,
    read_response,
    serialize_request,
    serialize_response,
)
from repro.serve.aio import HEALTH_PATH, ServerShell

SITE = "www.shell.example"
TIERS = ("delta-server", "proxy", "supervisor-admin")


def make_site() -> SyntheticSite:
    return SyntheticSite(SiteSpec(name=SITE, products_per_category=2))


def page_url() -> str:
    site = make_site()
    return site.url_for(site.all_pages()[0])


@dataclass
class Tier:
    """One booted tier, reduced to what the shell contract needs."""

    address: tuple[str, int]
    shell: ServerShell
    #: the tier's own graceful shutdown (drains the shell)
    close: Callable[[], Awaitable[object]]
    #: a URL answered by the tier's handler, and the status it gives
    url: str
    status: int
    #: ``with tier.broken():`` makes the handler raise RuntimeError on ``url``
    broken: Callable[[], contextlib.AbstractContextManager]
    #: ``with tier.stalled():`` makes ``stalled_url`` outlive request_timeout
    stalled: Callable[[], contextlib.AbstractContextManager]
    stalled_url: str


@contextlib.contextmanager
def patched(obj, name, replacement):
    original = getattr(obj, name)
    setattr(obj, name, replacement)
    try:
        yield
    finally:
        setattr(obj, name, original)


def boom(*_args, **_kwargs):
    raise RuntimeError("sabotaged handler")


async def start_upstream(delay: float = 0.0) -> asyncio.base_events.Server:
    """A scripted upstream: every request is answered 200 after ``delay``."""

    async def on_connection(reader, writer):
        with contextlib.suppress(ConnectionError, OSError):
            while (parsed := await read_request(reader)) is not None:
                await asyncio.sleep(delay)
                writer.write(
                    serialize_response(
                        Response(status=200, body=b"x" * 4096),
                        keep_alive=parsed.keep_alive,
                    )
                )
                await writer.drain()
        writer.close()

    return await asyncio.start_server(on_connection, "127.0.0.1", 0)


@contextlib.asynccontextmanager
async def boot(kind: str, tmp_path, *, slow: float = 0.0, **knobs):
    """Boot ``kind`` through its public constructor; ``slow`` delays its
    backend (origin render / upstream answer) by that many seconds."""
    if kind == "delta-server":
        server = build_server(
            [make_site()],
            fault_plan=FaultPlan([FaultRule(kind="latency", delay=slow)]),
            **knobs,
        )
        async with server:
            yield Tier(
                server.address, server, server.close, page_url(), 200,
                lambda: patched(server.engine, "handle", boom),
                contextlib.nullcontext, page_url(),
            )
    elif kind == "proxy":
        upstream = await start_upstream(slow)
        port = upstream.sockets[0].getsockname()[1]
        try:
            async with ProxyHTTPServer("127.0.0.1", port, **knobs) as proxy:
                yield Tier(
                    proxy.address, proxy, proxy.close, f"{SITE}/doc", 200,
                    lambda: patched(proxy.cache, "lookup", boom),
                    contextlib.nullcontext, f"{SITE}/doc",
                )
        finally:
            upstream.close()
            await upstream.wait_closed()
    else:
        # The admin endpoint has no knobs of its own (FleetConfig only
        # names its port): the shell's public attributes are set directly.
        supervisor = FleetSupervisor(
            FleetConfig(
                workers=1,
                control_file=str(tmp_path / "fleet.json"),
                worker_args=("--site", SITE, "--products", "2"),
            )
        )
        await supervisor.start()
        for name, value in knobs.items():
            setattr(supervisor.admin, name, value)
        worker = supervisor.handles[0]

        @contextlib.contextmanager
        def worker_stopped():
            # A hung worker: its health scrape outlives the admin timeout.
            worker.process.send_signal(signal.SIGSTOP)
            try:
                yield
            finally:
                worker.process.send_signal(signal.SIGCONT)

        try:
            yield Tier(
                supervisor.admin_address, supervisor.admin, supervisor.drain,
                f"{SITE}/no-such-verb", 404,
                lambda: patched(supervisor, "roll", boom),
                worker_stopped, f"{SITE}/{HEALTH_PATH}",
            )
        finally:
            await supervisor.drain()


class Client:
    """One raw keep-alive connection."""

    def __init__(self, reader, writer):
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, address) -> "Client":
        return cls(*await asyncio.open_connection(*address))

    async def get(self, url: str, *, keep_alive: bool = True):
        self.writer.write(serialize_request(Request(url=url), keep_alive=keep_alive))
        await self.writer.drain()
        return await asyncio.wait_for(read_response(self.reader), 10.0)

    async def at_eof(self) -> bool:
        """The server closed (or reset — it does not read what it rejects)."""
        try:
            return await asyncio.wait_for(self.reader.read(1), 5.0) == b""
        except ConnectionError:
            return True

    def close(self) -> None:
        self.writer.close()


def run(coro_fn, kind, tmp_path, **boot_kwargs):
    """Run ``coro_fn(tier)`` against a booted tier; fail on any exception
    that escaped a task (the loop's exception handler would only log it)."""
    escaped = []

    def on_escape(_loop, context):
        # (asyncio.run() cancelling the scripted upstream's leftover
        # connection callbacks at teardown is not an escape.)
        if not isinstance(context.get("exception"), asyncio.CancelledError):
            escaped.append(context)

    async def main():
        asyncio.get_running_loop().set_exception_handler(on_escape)
        async with boot(kind, tmp_path, **boot_kwargs) as tier:
            await coro_fn(tier)
        gc.collect()  # finished tasks report unretrieved exceptions on GC
        await asyncio.sleep(0)

    asyncio.run(main())
    assert escaped == []


@pytest.mark.parametrize("kind", TIERS)
class TestShellContract:
    def test_slots_exhausted_is_503_and_counted(self, kind, tmp_path):
        async def check(tier):
            holders = []
            try:
                for _ in range(tier.shell.max_connections):
                    holder = await Client.open(tier.address)
                    holders.append(holder)
                    # A served request proves the slot is taken (and held
                    # while the connection idles between requests).
                    assert (await holder.get(tier.url)).response.status == tier.status
                overflow = await Client.open(tier.address)
                rejected = await overflow.get(tier.url)
                assert rejected.response.status == 503
                assert not rejected.keep_alive  # Connection: close
                assert await overflow.at_eof()
                overflow.close()
                assert tier.shell.serve_stats.connections_rejected == 1
                assert tier.shell.serve_stats.status_counts[503] == 1
                assert tier.shell.serve_stats.active_connections == len(holders)
            finally:
                for holder in holders:
                    holder.close()

        knobs = {} if kind == "supervisor-admin" else {"max_connections": 2}
        run(check, kind, tmp_path, **knobs)

    def test_malformed_request_is_4xx_and_closes(self, kind, tmp_path):
        async def check(tier):
            client = await Client.open(tier.address)
            client.writer.write(b"NONSENSE\r\n\r\n")
            await client.writer.drain()
            parsed = await asyncio.wait_for(read_response(client.reader), 5.0)
            assert parsed.response.status == 400
            assert not parsed.keep_alive
            assert await client.at_eof()
            client.close()
            assert tier.shell.serve_stats.protocol_errors == 1
            # The same, from a peer that resets before the 4xx can be
            # written: nothing may escape the connection task.
            sock = socket.create_connection(tier.address)
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
            sock.sendall(b"NONSENSE\r\n\r\n")
            sock.close()  # linger 0: RST
            for _ in range(100):
                if tier.shell.serve_stats.protocol_errors == 2:
                    break
                await asyncio.sleep(0.01)
            assert tier.shell.serve_stats.protocol_errors == 2
            for _ in range(100):
                if tier.shell.serve_stats.active_connections == 0:
                    break
                await asyncio.sleep(0.01)
            assert tier.shell.serve_stats.active_connections == 0

        run(check, kind, tmp_path)

    def test_raising_handler_is_500_and_connection_survives(self, kind, tmp_path):
        async def check(tier):
            # The supervisor's handler only runs code of its own on a verb.
            url = f"{SITE}/__roll__" if kind == "supervisor-admin" else tier.url
            client = await Client.open(tier.address)
            try:
                with tier.broken():
                    failed = await client.get(url)
                assert failed.response.status == 500
                assert failed.keep_alive
                assert tier.shell.serve_stats.exception_counts == {"RuntimeError": 1}
                assert "sabotaged handler" in tier.shell.serve_stats.last_error
                # Same connection, next request: served normally.
                assert (await client.get(tier.url)).response.status == tier.status
                assert tier.shell.serve_stats.connections_accepted == 1
            finally:
                client.close()

        run(check, kind, tmp_path)

    def test_slow_handler_is_504_and_connection_survives(self, kind, tmp_path):
        async def check(tier):
            client = await Client.open(tier.address)
            try:
                with tier.stalled():
                    timed_out = await client.get(tier.stalled_url)
                assert timed_out.response.status == 504
                assert timed_out.keep_alive
                assert tier.shell.serve_stats.timeouts == 1
                # Same connection keeps serving.  (Health on the two slow
                # tiers: tier.url would stall again.)
                if kind == "supervisor-admin":
                    url, status = tier.url, tier.status
                else:
                    url, status = f"{SITE}/{HEALTH_PATH}", 200
                assert (await client.get(url)).response.status == status
                assert tier.shell.serve_stats.connections_accepted == 1
            finally:
                client.close()

        run(check, kind, tmp_path, slow=0.5, request_timeout=0.05)

    def test_close_twice_is_a_noop(self, kind, tmp_path):
        async def check(tier):
            await tier.close()
            report = tier.shell.drain_report
            assert report is not None and report["cancelled"] == 0
            await tier.close()
            await tier.shell.close()
            assert tier.shell.drain_report is report
            with pytest.raises(OSError):
                await Client.open(tier.address)

        run(check, kind, tmp_path)

    def test_keep_alive_connection_is_tracked_and_drained(self, kind, tmp_path):
        """Several requests share one connection on every tier (the
        supervisor's admin used to answer one request per connection from
        an untracked task), and close() reaches that connection."""

        async def check(tier):
            client = await Client.open(tier.address)
            try:
                for _ in range(3):
                    parsed = await client.get(tier.url)
                    assert parsed.response.status == tier.status
                    assert parsed.keep_alive
                assert tier.shell.serve_stats.connections_accepted == 1
                assert tier.shell.serve_stats.active_connections == 1
                await tier.close()
                assert await client.at_eof()
                assert tier.shell.serve_stats.active_connections == 0
            finally:
                client.close()

        run(check, kind, tmp_path)


@pytest.mark.parametrize("kind", ("delta-server", "proxy"))
class TestIdleAwareDrain:
    def test_idle_keep_alive_connection_does_not_cost_the_drain_timeout(
        self, kind, tmp_path
    ):
        async def check(tier):
            client = await Client.open(tier.address)
            try:
                assert (await client.get(tier.url)).response.status == 200
                # ... and now the connection just sits there, parked.
                loop = asyncio.get_running_loop()
                started = loop.time()
                await tier.close()
                assert loop.time() - started < 0.5
                report = tier.shell.drain_report
                assert (report["in_flight"], report["cancelled"]) == (0, 0)
                assert await client.at_eof()
            finally:
                client.close()

        run(check, kind, tmp_path, drain_timeout=3.0)

    def test_never_used_connection_does_not_cost_the_drain_timeout(
        self, kind, tmp_path
    ):
        """A preconnected client (or a peer's pooled-but-unused socket) has
        sent nothing: it is waiting for its first request, not in flight."""

        async def check(tier):
            client = await Client.open(tier.address)
            try:
                for _ in range(100):  # until the server side has accepted it
                    if tier.shell.serve_stats.active_connections == 1:
                        break
                    await asyncio.sleep(0.01)
                loop = asyncio.get_running_loop()
                started = loop.time()
                await tier.close()
                assert loop.time() - started < 0.5
                report = tier.shell.drain_report
                assert (report["in_flight"], report["cancelled"]) == (0, 0)
                assert await client.at_eof()
            finally:
                client.close()

        run(check, kind, tmp_path, drain_timeout=3.0)

    def test_request_in_flight_is_waited_for_and_fully_answered(
        self, kind, tmp_path
    ):
        async def check(tier):
            busy = await Client.open(tier.address)
            idle = await Client.open(tier.address)
            try:
                assert (await idle.get(tier.url)).response.status == 200
                loop = asyncio.get_running_loop()
                pending = asyncio.ensure_future(busy.get(tier.url))
                await asyncio.sleep(0.1)  # the request is now at the backend
                started = loop.time()
                await tier.close()
                waited = loop.time() - started
                parsed = await pending
                assert parsed.response.status == 200
                assert len(parsed.response.body) > 1000  # the whole body
                assert not parsed.keep_alive  # draining: Connection: close
                assert 0.15 < waited < 2.0
                report = tier.shell.drain_report
                assert (report["in_flight"], report["cancelled"]) == (1, 0)
            finally:
                busy.close()
                idle.close()

        run(check, kind, tmp_path, slow=0.4, drain_timeout=3.0)


@pytest.mark.parametrize(
    "kind, headers",
    [("delta-server", ("Server", "X-Served-At", "X-Body-Digest")), ("proxy", ("Via",))],
)
def test_admin_answers_carry_the_tier_identity_headers(kind, headers, tmp_path):
    """``/__health__`` and ``/__metrics__`` are built by the shell, but go
    out stamped like every other answer the tier itself produces."""

    async def check(tier):
        client = await Client.open(tier.address)
        try:
            for path in ("__health__", "__metrics__"):
                answered = (await client.get(f"{SITE}/{path}")).response
                assert answered.status == 200
                for name in headers:
                    assert answered.headers.get(name), (path, name)
        finally:
            client.close()

    run(check, kind, tmp_path)
