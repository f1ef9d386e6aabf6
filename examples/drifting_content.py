#!/usr/bin/env python3
"""Content drift and rebases: the base-file lifecycle under change.

A catalog site revises its product pages every hour.  Deltas against the
original base-file degrade after each revision; the delta-server's rebase
machinery (Section IV) notices and adopts a fresh base, restoring small
deltas — while clients holding the previous base keep getting deltas
through the transition (the graceful-rebase path).

Run:  python examples/drifting_content.py
"""

from repro.client import DeltaClient
from repro.core import (
    AnonymizationConfig,
    BaseFileConfig,
    DeltaServer,
    DeltaServerConfig,
)
from repro.origin import OriginServer, SiteSpec, SyntheticSite
from repro.url import RuleBook


def main() -> None:
    site = SyntheticSite(
        SiteSpec(
            name="www.drift.example",
            categories=("catalog",),
            products_per_category=1,
            detail_revision_seconds=3600.0,  # hourly catalog edits
        )
    )
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    # Tuned for a fast-drifting site: sample aggressively so the candidate
    # store tracks the current content generation, and treat deltas above
    # 20 % of the document as "relatively large" (the basic-rebase trigger
    # of Section IV) so each catalog revision is recovered from quickly.
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(documents=2, min_count=1),
        base_file=BaseFileConfig(
            rebase_timeout=1200.0,
            sample_probability=0.4,
            basic_rebase_ratio=0.2,
        ),
    )
    server = DeltaServer(origin.fetch, config, rulebook)

    url = site.url_for(site.all_pages()[0])
    clients = [DeltaClient(server.handle) for _ in range(4)]

    print(f"{'time':>6}  {'delta bytes':>11}  {'version':>7}  rebases (grp/basic)")
    for minute in range(0, 181, 15):
        now = minute * 60.0
        sizes = []
        for client in clients:
            before = client.stats.document_bytes
            client.get(url, now)
            sizes.append(client.stats.document_bytes - before)
        cls = server.class_of(url)
        mean = sum(sizes) / len(sizes)
        marker = " <- catalog revision" if minute and minute % 60 == 0 else ""
        print(
            f"{minute:>4}m   {mean:>11,.0f}  {cls.version:>7}  "
            f"{server.stats.group_rebases}/{server.stats.basic_rebases}{marker}"
        )

    stats = server.stats
    print(
        f"\ntotals: {stats.deltas_served} deltas, {stats.full_served} fulls, "
        f"savings {stats.savings:.1%} despite {stats.group_rebases} group + "
        f"{stats.basic_rebases} basic rebases"
    )
    failures = sum(c.stats.delta_failures for c in clients)
    print(f"client delta failures: {failures} (graceful transitions)")


if __name__ == "__main__":
    main()
