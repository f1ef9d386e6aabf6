"""Drive a role core written as ``async def`` from synchronous code.

The client protocol (:mod:`repro.client.protocol`), the proxy policy
(:mod:`repro.proxy.proxy`) and the engine (:mod:`repro.core.delta_server`)
are each written once, as coroutines over an injected ``send`` /
``forward`` / ``fetch``.  The live tiers await them on the event loop; the
simulation injects in-process calls, so nothing ever suspends and one
``send(None)`` runs the coroutine to its ``return``.
"""

from __future__ import annotations

import time
from typing import Any, Coroutine, TypeVar

T = TypeVar("T")


def run_sync(coroutine: Coroutine[Any, Any, T]) -> T:
    """Run a coroutine that never really awaits to completion."""
    try:
        coroutine.send(None)
    except StopIteration as done:
        return done.value
    coroutine.close()
    raise RuntimeError("coroutine suspended: run_sync drives in-process calls only")


async def blocking_sleep(seconds: float) -> None:
    """An awaitable ``sleep`` that blocks the thread and never suspends."""
    time.sleep(seconds)
