#!/usr/bin/env python3
"""Quickstart: the delta-encoding flow of paper Figure 1, end to end.

Builds a synthetic dynamic site, puts a delta-server in front of it, and
walks one client through the lifecycle:

1. first request  -> full response (class created, base-file anonymizing)
2. more users     -> anonymization completes, base-file becomes cachable
3. repeat request -> tiny compressed delta instead of the full document

Run:  python examples/quickstart.py
"""

from repro.client import DeltaClient
from repro.core import AnonymizationConfig, DeltaServer, DeltaServerConfig
from repro.origin import OriginServer, SiteSpec, SyntheticSite
from repro.url import RuleBook


def main() -> None:
    # -- a dynamic web-site (the origin) ------------------------------------
    site = SyntheticSite(SiteSpec(name="www.shop.example"))
    origin = OriginServer([site])

    # -- the delta-server in front of it (Fig. 2) ---------------------------
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(enabled=True, documents=3, min_count=1)
    )
    server = DeltaServer(origin.fetch, config, rulebook)

    url = site.url_for(site.all_pages()[0])
    print(f"document URL: {url}\n")

    # -- one browser, plus a few other users to warm the class --------------
    alice = DeltaClient(server.handle)
    others = [DeltaClient(server.handle) for _ in range(3)]

    print("t=0    alice's first visit (class is created)")
    body = alice.get(url, now=0.0)
    print(f"       received {len(body):,} bytes (full document)\n")

    print("t=10   three other users visit; anonymization completes")
    for i, other in enumerate(others):
        other.get(url, now=10.0 + i)
    cls = server.class_of(url)
    print(f"       class {cls.class_id}: version {cls.version}, "
          f"base-file {len(cls.current.body):,} bytes (anonymized)\n")

    print("t=120  alice revisits: full response again, but now tagged with")
    print("       the class reference, so she picks up the shared base-file")
    alice.get(url, now=120.0)
    print(f"       base-files cached by alice: {alice.held_base_refs()}\n")

    print("t=180  alice revisits once more (content changed meanwhile)")
    body = alice.get(url, now=180.0)
    sent = alice.stats.transfer_sizes[-1]
    print(f"       reconstructed {len(body):,} bytes from a {sent:,}-byte "
          f"compressed delta ({len(body) / sent:.0f}x smaller)\n")

    stats = server.stats
    print("server totals:")
    print(f"  requests        {stats.requests}")
    print(f"  direct bytes    {stats.direct_bytes:,} (what a plain server sends)")
    print(f"  sent bytes      {stats.sent_bytes:,}")
    print(f"  deltas served   {stats.deltas_served}")
    print(f"  savings         {stats.savings:.1%} on document traffic")


if __name__ == "__main__":
    main()
