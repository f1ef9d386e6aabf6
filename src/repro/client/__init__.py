"""Client role: the delta protocol core and its browser driver."""

from __future__ import annotations

from repro.client.browser import ClientStats, DeltaClient, DocumentUnavailable
from repro.client.protocol import ClientProtocol, FetchOutcome

__all__ = [
    "ClientProtocol",
    "ClientStats",
    "DeltaClient",
    "DocumentUnavailable",
    "FetchOutcome",
]
