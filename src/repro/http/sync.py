"""Drive a role core written as ``async def`` from synchronous code.

The client protocol (:mod:`repro.client.protocol`) and the proxy policy
(:mod:`repro.proxy.proxy`) are each written once, as coroutines over an
injected ``send`` / ``forward``.  The live tiers await them on the event
loop; the simulation injects in-process calls, so nothing ever suspends
and one ``send(None)`` runs the coroutine to its ``return``.
"""

from __future__ import annotations

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
