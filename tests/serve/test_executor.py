"""Tests for the worker-pool offload (repro.serve.executor)."""

import asyncio
import threading
import time

import pytest

from repro.serve.executor import KINDS, DeltaExecutor


def test_kinds_validated():
    with pytest.raises(ValueError):
        DeltaExecutor("fibers")
    assert set(KINDS) == {"thread", "sync"}


def test_sync_runs_inline():
    with DeltaExecutor("sync") as executor:
        ran_in = []

        async def main():
            return await executor.run(
                lambda: ran_in.append(threading.current_thread().name) or 42
            )

        assert asyncio.run(main()) == 42
    assert ran_in == [threading.current_thread().name]


def test_thread_runs_off_loop_thread():
    with DeltaExecutor("thread", max_workers=2) as executor:

        async def main():
            return await executor.run(lambda: threading.current_thread().name)

        name = asyncio.run(main())
    assert name != threading.current_thread().name


def test_thread_keeps_loop_responsive():
    """While a worker blocks, the event loop must still make progress."""
    with DeltaExecutor("thread", max_workers=1) as executor:

        async def main():
            ticks = 0
            blocked = asyncio.ensure_future(executor.run(time.sleep, 0.15))
            while not blocked.done():
                await asyncio.sleep(0.01)
                ticks += 1
            return ticks

        assert asyncio.run(main()) >= 5


def test_exceptions_propagate():
    def boom():
        raise RuntimeError("worker exploded")

    with DeltaExecutor("thread") as executor:

        async def main():
            await executor.run(boom)

        with pytest.raises(RuntimeError, match="worker exploded"):
            asyncio.run(main())


def test_kwargs_forwarded():
    def combine(a, b=0):
        return a + b

    with DeltaExecutor("thread") as executor:

        async def main():
            return await executor.run(combine, 1, b=2)

        assert asyncio.run(main()) == 3
