"""The client role of Fig. 2, written once.

What a delta-capable client does (paper Section VI-C) is the same
whether it is one simulated browser or a socket-level load generator
standing in for a whole population: advertise the base-file it holds for
a URL, apply the delta it is sent, on a lost or corrupt base drop it and
refetch the document in full, adopt whichever base the response
advertises (``X-Delta-Base`` — a full response names the class base, a
post-rebase delta names the upgrade) and fetch that base-file over its
ordinary, proxy-cachable URL.  It learns about classes only from response
headers, which is the transparent-deployment point.

:class:`ClientProtocol` is that state machine and nothing else.  It owns
the per-``(user, url)`` base refs and the base-file cache; it does no I/O
— every request goes through the ``send`` the caller injects — and keeps
no statistics: :meth:`ClientProtocol.fetch` returns a
:class:`FetchOutcome` that each driver folds into its own accounting.

Drivers: :class:`repro.client.browser.DeltaClient` (synchronous, one
browser, ``send`` is an in-process call) and
:class:`repro.serve.loadgen.LoadGenerator` (asyncio sockets; retries and
backoff live in its ``send``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Awaitable, Callable

from repro.core.delta_server import DeltaServer
from repro.delta.apply import apply_delta
from repro.delta.codec import DEFAULT_MAX_TARGET_LENGTH
from repro.delta.compress import decompress
from repro.delta.errors import DeltaError
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_CONTENT_ENCODING,
    Request,
    Response,
    parse_base_ref,
)
from repro.url.parts import split_server

Send = Callable[[Request], Awaitable[Response]]


@dataclass(slots=True)
class FetchOutcome:
    """What one :meth:`ClientProtocol.fetch` did."""

    #: the document response the outcome rests on (the full refetch's
    #: when the first answer was an unusable delta)
    response: Response
    #: the reconstructed document; ``None`` when no answer yielded one
    #: (a non-200 status, or a delta that stayed unusable after refetch)
    document: bytes | None = None
    #: ``document`` was reconstructed from a delta
    delta: bool = False
    #: served deltas that could not be applied (base lost, base or
    #: payload corrupt) and were answered with a plain refetch
    delta_failures: int = 0
    #: bodies the driver's ``intact`` check rejected: a full document is
    #: still returned (the driver decides), a base-file is not cached
    damaged: int = 0
    base_fetches: int = 0
    #: bytes of base-files fetched and cached
    base_bytes: int = 0


class ClientProtocol:
    """Base refs, base-file cache and the fetch state machine.

    ``intact`` is the driver's integrity check on non-delta bodies (the
    serve tier's ``X-Body-Digest``; delta payloads carry their target
    checksum in the wire format already).  ``None`` trusts the transport.
    """

    def __init__(self, intact: Callable[[Response], bool] | None = None) -> None:
        self._intact = intact
        #: ref -> base-file bytes
        self.bases: dict[str, bytes] = {}
        #: (user, url) -> ref the user would diff against
        self.refs: dict[tuple[str, str], str] = {}

    async def fetch(self, url: str, user: str, send: Send) -> FetchOutcome:
        """Fetch ``url`` as ``user``: document bytes plus what it took."""
        outcome = FetchOutcome(await send(self._document_request(url, user)))
        if not self._read(outcome):
            # The paper's fallback: forget the ref, so the same request
            # now advertises nothing and is answered in full.
            self.refs.pop((user, url), None)
            outcome.response = await send(self._document_request(url, user))
            self._read(outcome)
        if outcome.document is None:
            return outcome
        ref = outcome.response.base_file_ref
        if ref is not None:
            self.refs[(user, url)] = ref
            if ref not in self.bases:
                await self._fetch_base(url, user, ref, send, outcome)
        return outcome

    def _document_request(self, url: str, user: str) -> Request:
        request = _request(url, user)
        held = self.refs.get((user, url))
        if held in self.bases:
            request.headers.set(HEADER_ACCEPT_DELTA, held)
        return request

    def _read(self, outcome: FetchOutcome) -> bool:
        """Turn ``outcome.response`` into ``outcome.document``.

        ``False`` when the response is a delta that cannot be applied;
        a non-200 answer reads as "no document", which is not a failure
        of this step.
        """
        response = outcome.response
        if response.status != 200:
            return True
        if response.is_delta:
            outcome.document = self._apply(response)
            if outcome.document is None:
                outcome.delta_failures += 1
                return False
            outcome.delta = True
            return True
        if self._intact is not None and not self._intact(response):
            outcome.damaged += 1
        outcome.document = response.body
        return True

    def _apply(self, response: Response) -> bytes | None:
        """Reconstruct the document a served delta encodes, or ``None``.

        ``apply_delta`` checks the wire checksum, so success *is*
        byte-for-byte verification; the decode bound rejects a payload
        that would reconstruct more than the engine would ever serve.
        """
        ref = response.delta_base_ref
        base = self.bases.get(ref) if ref else None
        if base is None:
            return None
        try:
            payload = response.body
            if response.headers.get(HEADER_CONTENT_ENCODING) == "deflate":
                payload = decompress(payload)
            return apply_delta(
                payload, base, max_target_length=DEFAULT_MAX_TARGET_LENGTH
            )
        except (DeltaError, zlib.error):
            # Corrupt payload or corrupt base: the base is the one the
            # client can do something about.
            self.bases.pop(ref, None)
            return None

    async def _fetch_base(
        self, document_url: str, user: str, ref: str, send: Send,
        outcome: FetchOutcome,
    ) -> None:
        try:
            class_id, version = parse_base_ref(ref)
        except ValueError:
            return
        server, _ = split_server(document_url)
        response = await send(
            _request(DeltaServer.base_file_url(server, class_id, version), user)
        )
        outcome.base_fetches += 1
        if response.status != 200:
            return
        if self._intact is not None and not self._intact(response):
            outcome.damaged += 1
            return
        self.bases[ref] = response.body
        outcome.base_bytes += len(response.body)


def _request(url: str, user: str) -> Request:
    return Request(url=url, cookies={"uid": user}, client_id=user)
