"""Offload blocking work (delta generation, rendering) off the event loop.

The Vdelta differ costs milliseconds per delta (the paper's 6–8 ms,
Section VI-C); run inline it would stall every other connection on the
asyncio loop.  :class:`DeltaExecutor` pushes those calls onto a worker
pool so the loop only ever awaits.

Two kinds:

* ``thread`` (default) — a ``ThreadPoolExecutor``.  The engine is sharded
  (per-class locks, off-lock origin fetch, snapshot-encode-commit delta
  generation — see :mod:`repro.core.delta_server`), so worker threads for
  *different classes* genuinely overlap: origin waits run in parallel and
  lock holds are brief.  The pure-Python differ still holds the GIL while
  encoding, so CPU-bound encode work time-slices rather than running in
  parallel — the win is overlap of origin latency, I/O, and (with a
  C-accelerated differ or zlib-heavy payloads, which release the GIL)
  real compute too.  The default pool size is therefore sized for
  latency overlap, not core count: ``min(64, 4 × cores)``.
* ``sync`` — run inline.  Fallback for environments without worker
  threads and for deterministic unit tests.
"""

from __future__ import annotations

import asyncio
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

KINDS = ("thread", "sync")


def default_thread_workers() -> int:
    """Default thread-pool size: overlap-oriented, not core-count-bound.

    Worker threads mostly wait (origin fetch, lock waits, loop I/O), so
    the pool runs wider than the core count; 64 caps memory and context-
    switch overhead on big machines.
    """
    return min(64, 4 * (os.cpu_count() or 4))


class DeltaExecutor:
    """Awaitable bridge from the event loop to a worker pool."""

    def __init__(self, kind: str = "thread", max_workers: int | None = None) -> None:
        if kind not in KINDS:
            raise ValueError(f"executor kind must be one of {KINDS}, got {kind!r}")
        self.kind = kind
        if kind == "thread":
            if max_workers is None:
                max_workers = default_thread_workers()
            self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="delta"
            )
        else:
            self._pool = None

    async def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn(*args, **kwargs)`` off-loop and await its result.

        In ``sync`` mode the call runs inline (blocking the loop) — the
        documented fallback, not the serving configuration.
        """
        if self._pool is None:
            return fn(*args, **kwargs)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )

    def shutdown(self, wait: bool = True) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait)

    def __enter__(self) -> "DeltaExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"DeltaExecutor(kind={self.kind!r})"
