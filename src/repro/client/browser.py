"""Client-side of the architecture: base-file cache and reconstruction.

The paper's client options are "the browser's cache to store base-files,
and ... Java-scripts enabled at the browser, to combine deltas and locally
stored base-files" or a plug-in (Section VI-C).  :class:`DeltaClient`
models one browser instance: a cookie jar (one *user id* per jar — two
browsers of the same human are two users, exactly the paper's Netscape/IE
caveat) and its transfer statistics, around the protocol itself
(:class:`~repro.client.protocol.ClientProtocol`: base-file cache, delta
application, fallbacks), which it drives synchronously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.client.protocol import ClientProtocol
from repro.http.cookies import CookieJar
from repro.http.messages import Request, Response
from repro.http.sync import run_sync

SendFn = Callable[[Request, float], Response]


class DocumentUnavailable(Exception):
    """The upstream's answer was not a document (non-200, or unusable)."""

    def __init__(self, url: str, response: Response) -> None:
        super().__init__(f"{url}: status {response.status}")
        self.response = response


@dataclass(slots=True)
class ClientStats:
    """Per-browser transfer accounting (drives latency estimates)."""

    requests: int = 0
    document_bytes: int = 0  # bytes received for document responses
    base_file_bytes: int = 0  # bytes received fetching base-files
    deltas_applied: int = 0
    full_responses: int = 0
    base_fetches: int = 0
    delta_failures: int = 0
    #: sizes of individual document transfers, for latency modelling
    transfer_sizes: list[int] = field(default_factory=list)
    #: distinct document URLs this browser has fetched
    urls_fetched: set[str] = field(default_factory=set)


class DeltaClient:
    """One browser instance talking to the web through ``send``.

    ``send`` is whatever sits upstream: the delta-server directly, or a
    proxy-cache in front of it — the client cannot tell, which is the point.
    """

    def __init__(self, send: SendFn, jar: CookieJar | None = None) -> None:
        self._send = send
        self.jar = jar or CookieJar()
        self.jar.ensure_uid()
        self.protocol = ClientProtocol()
        self.stats = ClientStats()

    @property
    def user_id(self) -> str:
        return self.jar.ensure_uid()

    def held_base_refs(self) -> list[str]:
        """Base-file references currently cached (diagnostics)."""
        return sorted(self.protocol.bases)

    def drop_base(self, ref: str) -> None:
        """Evict a cached base-file (simulates browser-cache pressure)."""
        self.protocol.bases.pop(ref, None)

    def get(self, url: str, now: float = 0.0) -> bytes:
        """Fetch ``url`` and return the reconstructed document.

        Raises :class:`DocumentUnavailable` when the answer is not one.
        """
        user = self.jar.ensure_uid()  # (re)issue identity before snapshotting cookies

        async def send(request: Request) -> Response:
            request.cookies = self.jar.as_request_cookies()
            request.timestamp = now
            return self._send(request, now)

        outcome = run_sync(self.protocol.fetch(url, user, send))
        stats = self.stats
        stats.requests += 1
        stats.urls_fetched.add(url)
        stats.delta_failures += outcome.delta_failures
        stats.base_fetches += outcome.base_fetches
        stats.base_file_bytes += outcome.base_bytes
        if outcome.document is None:
            raise DocumentUnavailable(url, outcome.response)
        if outcome.delta:
            stats.deltas_applied += 1
        else:
            stats.full_responses += 1
        received = outcome.response.content_length
        stats.document_bytes += received
        stats.transfer_sizes.append(received)
        return outcome.document
