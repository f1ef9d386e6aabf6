"""Simulated origin web-server hosting one or more synthetic sites.

Plays the role of the Apache server in Fig. 2: given a request, it renders
the *current snapshot* of the dynamic document.  The delta-server sits in
front of it and never caches these responses — it diffs them.

Thread-safe: the sharded engine fetches from the origin under no engine
lock, so concurrent ``handle`` calls are the norm.  Rendering itself is
pure (immutable templates, per-call seeded rngs) and runs in parallel;
only the stats counters and the lazy profile registry sit behind an
internal lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.http.messages import Request, Response
from repro.origin.private import PrivateProfile, profile_for
from repro.origin.site import PageKey, SyntheticSite
from repro.url.parts import split_server


@dataclass(slots=True)
class OriginStats:
    """Counters for origin-side accounting."""

    requests: int = 0
    bytes_rendered: int = 0
    errors: int = 0


class OriginServer:
    """Serves current document snapshots for a set of synthetic sites."""

    def __init__(self, sites: list[SyntheticSite] | None = None) -> None:
        self._sites: dict[str, SyntheticSite] = {}
        self._profiles: dict[str, PrivateProfile] = {}
        self._shared_groups: dict[str, str] = {}
        self.stats = OriginStats()
        # Guards stats and the lazy profile/shared-group registries; site
        # registration happens at setup time and rendering is pure, so
        # neither needs it.
        self._lock = threading.Lock()
        for site in sites or []:
            self.add_site(site)

    def add_site(self, site: SyntheticSite) -> None:
        """Host another site on this origin."""
        if site.spec.name in self._sites:
            raise ValueError(f"site {site.spec.name!r} already hosted")
        self._sites[site.spec.name] = site

    def site(self, name: str) -> SyntheticSite:
        """The hosted site with server-part ``name``."""
        return self._sites[name]

    @property
    def sites(self) -> list[SyntheticSite]:
        return list(self._sites.values())

    def register_shared_card(self, user_id: str, group: str) -> None:
        """Put ``user_id`` in a corporate-card group (paper Section V).

        Members of a group render the *same* card number on their private
        pages, modelling the shared-corporate-card risk that motivates the
        M > 1 anonymization level.
        """
        with self._lock:
            self._shared_groups[user_id] = group
            self._profiles.pop(user_id, None)  # rebuild with the group attached

    def profile_for(self, user_id: str) -> PrivateProfile:
        """The (lazily created) private-data profile of a user."""
        with self._lock:
            profile = self._profiles.get(user_id)
            if profile is None:
                # Deterministic per user, so building inside the lock keeps
                # racing requests for one user on a single profile object.
                profile = profile_for(user_id, self._shared_groups.get(user_id))
                self._profiles[user_id] = profile
            return profile

    def handle(self, request: Request, now: float) -> Response:
        """Render the current snapshot for ``request`` at time ``now``.

        Safe to call from many threads at once; renders run in parallel.
        """
        with self._lock:
            self.stats.requests += 1
        try:
            server, _ = split_server(request.url)
            site = self._sites[server]
            page = site.parse_url(request.url)
        except (KeyError, ValueError):
            with self._lock:
                self.stats.errors += 1
            return Response(status=404, body=b"not found")
        body = self._render(site, page, request, now)
        with self._lock:
            self.stats.bytes_rendered += len(body)
        return Response(status=200, body=body)

    async def fetch(self, request: Request, now: float) -> Response:
        """:meth:`handle` as an in-process origin fetch (never suspends)."""
        return self.handle(request, now)

    def _render(
        self, site: SyntheticSite, page: PageKey, request: Request, now: float
    ) -> bytes:
        user_id = request.user_id
        if user_id is None:
            return site.render(page, now)
        profile = self.profile_for(user_id)
        return site.render(
            page,
            now,
            user_id=user_id,
            profile=profile,
            use_shared_card=profile.shared_group is not None,
        )
