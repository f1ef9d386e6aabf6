"""Unit tests for :class:`~repro.serve.aio.ConnectionPool` against a
scripted fake peer (every outbound tier — proxy upstream, fleet forward,
supervisor probe — goes through this one pool)."""

import asyncio
import contextlib

import pytest

from repro.http.messages import Request, Response
from repro.serve import read_request, serialize_response
from repro.serve.aio import ConnectionPool, PeerUnavailable

REQUEST_URL = "peer.example/doc"


class ScriptedPeer:
    """Loopback peer playing one behaviour per accepted connection.

    ``"serve"`` (the default once the script runs out) answers every
    request; ``"serve-once"`` answers one request and then closes the
    connection *without* announcing it; ``"serve-then-die"`` answers one
    request, keeps the connection open, and drops it on the next request
    unanswered (a peer that restarted behind a parked keep-alive);
    ``"die"`` reads a request and closes without answering; ``"slow"``
    answers after ``delay`` seconds.
    """

    def __init__(self, script=(), delay: float = 0.0) -> None:
        self.script = list(script)
        self.delay = delay
        self.accepted = 0
        self.requests = 0
        self._server = None
        self._handlers: set[asyncio.Task] = set()

    async def __aenter__(self) -> "ScriptedPeer":
        self._server = await asyncio.start_server(self._accept, "127.0.0.1", 0)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc_info) -> None:
        self._server.close()
        for task in self._handlers:
            task.cancel()
        await asyncio.gather(*self._handlers, return_exceptions=True)

    def _accept(self, reader, writer) -> None:
        task = asyncio.ensure_future(self._play(reader, writer))
        self._handlers.add(task)

    async def _play(self, reader, writer) -> None:
        self.accepted += 1
        behaviour = self.script.pop(0) if self.script else "serve"
        try:
            while (parsed := await read_request(reader)) is not None:
                self.requests += 1
                if behaviour == "die":
                    return
                if behaviour == "serve-then-die":
                    behaviour = "die"
                await asyncio.sleep(self.delay if behaviour == "slow" else 0)
                writer.write(
                    serialize_response(
                        Response(status=200, body=b"ok"),
                        keep_alive=parsed.keep_alive,
                    )
                )
                await writer.drain()
                if behaviour == "serve-once" or not parsed.keep_alive:
                    return
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()


def pool_for(peer: ScriptedPeer, **kwargs) -> ConnectionPool:
    kwargs.setdefault("max_parked", 4)
    return ConnectionPool("127.0.0.1", peer.port, **kwargs)


async def exchange(pool: ConnectionPool, **kwargs) -> int:
    return (await pool.exchange(Request(url=REQUEST_URL), **kwargs)).response.status


async def settle() -> None:
    """Let the loop deliver a peer-side close to the parked transport."""
    for _ in range(5):
        await asyncio.sleep(0.01)


def test_parked_connection_is_reused():
    async def main():
        async with ScriptedPeer() as peer:
            pool = pool_for(peer)
            for _ in range(3):
                assert await exchange(pool) == 200
            assert peer.accepted == 1 and peer.requests == 3
            assert pool.parked == 1
            pool.close()

    asyncio.run(main())


def test_parked_connection_closed_by_peer_gets_exactly_one_fresh_retry():
    async def main():
        async with ScriptedPeer(["serve-then-die"]) as peer:
            pool = pool_for(peer)
            assert await exchange(pool) == 200
            assert pool.parked == 1
            # The parked connection looks alive; the request written into
            # it is dropped, and the caller never notices.
            assert await exchange(pool) == 200
            assert peer.accepted == 2 and peer.requests == 3
            pool.close()

    asyncio.run(main())


def test_parked_connection_already_closing_is_skipped():
    async def main():
        async with ScriptedPeer(["serve-once"]) as peer:
            pool = pool_for(peer)
            assert await exchange(pool) == 200
            await settle()  # our transport has seen the EOF: is_closing()
            assert await exchange(pool) == 200
            # Skipped, not retried: the dead connection never saw a request.
            assert peer.accepted == 2 and peer.requests == 2
            pool.close()

    asyncio.run(main())


def test_fresh_exchange_dying_is_peer_unavailable_without_retry():
    async def main():
        async with ScriptedPeer(["die", "serve"]) as peer:
            pool = pool_for(peer)
            with pytest.raises(PeerUnavailable):
                await exchange(pool)
            assert peer.accepted == 1  # a fresh failure is not retried
            assert pool.parked == 0

    asyncio.run(main())


def test_reused_then_fresh_both_dying_is_peer_unavailable():
    async def main():
        async with ScriptedPeer(["serve-then-die", "die"]) as peer:
            pool = pool_for(peer)
            assert await exchange(pool) == 200
            with pytest.raises(PeerUnavailable):
                await exchange(pool)
            assert peer.accepted == 2  # the one retry, and no more

    asyncio.run(main())


def test_connect_refused_is_peer_unavailable():
    async def main():
        async with ScriptedPeer() as peer:
            port = peer.port
        pool = ConnectionPool("127.0.0.1", port, max_parked=1)
        with pytest.raises(PeerUnavailable):
            await exchange(pool)

    asyncio.run(main())


def test_connect_timeout_is_honoured(monkeypatch):
    async def never_connects(host, port):
        await asyncio.sleep(30)

    async def main():
        monkeypatch.setattr(asyncio, "open_connection", never_connects)
        pool = ConnectionPool("127.0.0.1", 9, max_parked=1, connect_timeout=0.05)
        loop = asyncio.get_running_loop()
        started = loop.time()
        with pytest.raises(PeerUnavailable):
            await exchange(pool)
        assert loop.time() - started < 1.0

    asyncio.run(main())


def test_response_timeout_raises_and_never_parks_the_stream():
    async def main():
        async with ScriptedPeer(["slow"], delay=0.5) as peer:
            pool = pool_for(peer)
            with pytest.raises(asyncio.TimeoutError):
                await exchange(pool, timeout=0.05)
            assert pool.parked == 0
            assert await exchange(pool) == 200  # on a fresh connection
            assert peer.accepted == 2

    asyncio.run(main())


def test_open_connection_cap_blocks_instead_of_opening():
    async def main():
        async with ScriptedPeer(["slow", "slow", "slow"], delay=0.1) as peer:
            pool = pool_for(peer, max_open=2)
            statuses = await asyncio.gather(*(exchange(pool) for _ in range(3)))
            assert statuses == [200, 200, 200]
            # The third caller waited for a slot and reused a connection.
            assert peer.accepted == 2 and peer.requests == 3

    asyncio.run(main())


def test_parked_cap_discards_extras():
    async def main():
        async with ScriptedPeer(["slow"] * 3, delay=0.05) as peer:
            pool = pool_for(peer, max_parked=1)
            await asyncio.gather(*(exchange(pool) for _ in range(3)))
            assert peer.accepted == 3
            assert pool.parked == 1

    asyncio.run(main())


def test_never_parking_pool_announces_connection_close():
    async def main():
        async with ScriptedPeer() as peer:
            pool = pool_for(peer, max_parked=0)
            parsed = await pool.exchange(Request(url=REQUEST_URL))
            assert not parsed.keep_alive  # the peer echoed Connection: close
            assert pool.parked == 0
            assert await exchange(pool) == 200
            assert peer.accepted == 2

    asyncio.run(main())


def test_close_during_exchange_lets_it_finish_then_discards():
    async def main():
        async with ScriptedPeer(["slow"], delay=0.1) as peer:
            pool = pool_for(peer)
            assert await exchange(pool) == 200  # one parked connection...
            in_flight = asyncio.ensure_future(exchange(pool))  # ...now in use
            await asyncio.sleep(0.02)
            pool.close()
            assert await in_flight == 200
            assert pool.parked == 0  # finished, then discarded
            with contextlib.suppress(PeerUnavailable):
                await exchange(pool)
            assert pool.parked == 0  # a closed pool never parks again

    asyncio.run(main())
