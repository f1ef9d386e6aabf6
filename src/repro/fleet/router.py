"""Worker-side request routing: serve owned classes, forward the rest.

With ``SO_REUSEPORT`` (or a shared inherited listener) the kernel hands
any connection to any worker, but each document class lives in exactly
one worker (:mod:`repro.fleet.partition`).  The router is the worker-side
half of that contract:

* document requests hash their ``(server, hint)`` key — computed with the
  same admin :class:`~repro.url.rules.RuleBook` the grouper uses, so
  router and grouper can never disagree about a URL's class key;
* base-file requests (``.../__delta_base__/<class_id>/<version>``) route
  by the worker prefix baked into the class id;
* non-owned requests are forwarded verbatim over a pooled keep-alive
  connection to the owner's *internal* port and the owner's response is
  returned byte-preserving (``X-Served-At``, digests, and delta headers
  untouched — the forwarding worker is a dumb pipe);
* a dead owner (mid-restart) surfaces as :class:`PeerUnavailable`, which
  the serve layer answers with a retryable ``503`` — the same contract
  connection-slot exhaustion already has, and exactly what the load
  generator's transport-retry path expects during a crash-restart window.

Forward loops cannot form: a forwarded request carries
``X-Fleet-Forwarded`` and is always served locally by the receiver, even
if its map disagrees (it cannot, the map is deterministic — the header is
belt-and-braces against a mid-rolling-restart mixed-version fleet).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.core.delta_server import DeltaServer
from repro.fleet.partition import PartitionMap, owner_of_class_id
from repro.http.messages import Request, Response
from repro.metrics.stats import counter, stats_dict
from repro.serve.aio import ConnectionPool, PeerUnavailable
from repro.url.rules import RuleBook

#: stamped on every response by the worker whose engine produced it
HEADER_FLEET_WORKER = "X-Fleet-Worker"

#: request header marking an intra-fleet forward (value: origin worker id)
HEADER_FLEET_FORWARDED = "X-Fleet-Forwarded"


@dataclass(slots=True)
class FleetWorkerConfig:
    """One worker's view of the fleet, as handed down by the supervisor."""

    worker_id: int
    workers: int
    internal_port: int
    #: internal (loopback) ports of every worker, indexed by worker id
    peer_ports: tuple[int, ...]
    peer_host: str = "127.0.0.1"
    connect_timeout: float = 1.0
    #: per-peer response deadline; beyond it the peer counts as down
    forward_timeout: float = 10.0
    #: keep-alive connections kept per peer
    pool_size: int = 4

    def __post_init__(self) -> None:
        if not 0 <= self.worker_id < self.workers:
            raise ValueError(
                f"worker_id {self.worker_id} outside fleet of {self.workers}"
            )
        if len(self.peer_ports) != self.workers:
            raise ValueError("peer_ports must list every worker's internal port")


@dataclass(slots=True)
class RouterStats:
    """One worker's routing counters (single event loop; plain ints are exact)."""

    local_served: int = counter("requests this worker owned and served")
    served_for_peers: int = counter("requests served for a forwarding peer")
    forwarded: int = counter("requests relayed to the owning worker")
    forward_failures: int = counter("forwards whose owner was unavailable")


class FleetRouter:
    """Ownership decisions plus the forwarding data path for one worker."""

    def __init__(
        self,
        config: FleetWorkerConfig,
        rulebook: RuleBook,
        partition: PartitionMap | None = None,
    ) -> None:
        self.config = config
        self.worker_id = config.worker_id
        self.partition = partition or PartitionMap(config.workers)
        self._rulebook = rulebook
        #: one keep-alive pool per peer's internal port, indexed by worker id
        self._peers = [
            ConnectionPool(
                config.peer_host,
                port,
                max_parked=config.pool_size,
                connect_timeout=config.connect_timeout,
            )
            for port in config.peer_ports
        ]
        self.stats = RouterStats()

    # -- ownership -------------------------------------------------------------

    def owner_for_url(self, url: str) -> int:
        """Which worker owns the class state behind ``url``.

        Base-file URLs route by the minting worker's class-id prefix;
        everything else hashes the grouper's ``(server, hint)`` key.
        """
        base = DeltaServer.parse_base_file_url(url)
        if base is not None:
            class_id, _version = base
            owner = owner_of_class_id(class_id)
            if owner is not None and owner < self.config.workers:
                return owner
            return self.worker_id  # unprefixed/foreign id: serve locally
        try:
            parts = self._rulebook.partition(url)
        except ValueError:
            return self.worker_id  # unpartitionable URL: local 404 path
        return self.partition.owner(parts.server, parts.hint)

    def note_local(self, request: Request) -> None:
        """Account a locally-served request (forwarded-in ones separately)."""
        if request.headers.get(HEADER_FLEET_FORWARDED):
            self.stats.served_for_peers += 1
        else:
            self.stats.local_served += 1

    # -- forwarding ------------------------------------------------------------

    async def forward(self, owner: int, request: Request) -> Response:
        """Relay ``request`` to ``owner`` and return its response verbatim.

        The pool retries once when a parked connection turns out dead (a
        peer that restarted since it was parked); a peer that refuses a
        fresh connection, dies on one, or outlives ``forward_timeout`` is
        declared unavailable.
        """
        request.headers.set(HEADER_FLEET_FORWARDED, str(self.worker_id))
        try:
            parsed = await self._peers[owner].exchange(
                request, timeout=self.config.forward_timeout
            )
        except (PeerUnavailable, asyncio.TimeoutError) as exc:
            self.stats.forward_failures += 1
            raise PeerUnavailable(f"worker {owner} unavailable: {exc!r}") from exc
        self.stats.forwarded += 1
        return parsed.response

    def close(self) -> None:
        """Drop every pooled peer connection (worker drain path).

        In-flight forwards keep their checked-out connection and finish
        normally; it is discarded instead of re-parked afterwards.
        """
        for pool in self._peers:
            pool.close()

    # -- observability ---------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "workers": self.config.workers,
            "partition": self.partition.snapshot(),
            "pooled_connections": sum(pool.parked for pool in self._peers),
            **stats_dict(self.stats),
        }
