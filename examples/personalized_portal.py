#!/usr/bin/env python3
"""Personalized-portal scenario: the my.yahoo.com problem from the paper.

Every user sees a personalized version of the same logical pages, so a
classic delta-encoding server would store one base-file **per user per
page** — the scalability problem that motivates class-based delta-encoding.
Here one class per logical page serves every user's variants, and the
anonymization process scrubs private data (credit-card numbers, including
a shared corporate card) out of the shared base-files.

Run:  python examples/personalized_portal.py
"""

from repro.core import AnonymizationConfig, DeltaServerConfig
from repro.metrics import fmt_factor, fmt_pct, render_table
from repro.origin import SiteSpec, SyntheticSite, find_card_numbers
from repro.simulation import Simulation, SimulationConfig
from repro.workload import WorkloadSpec, generate_workload


def main() -> None:
    site = SyntheticSite(
        SiteSpec(
            name="my.portal.example",
            categories=("news", "finance", "sports"),
            products_per_category=3,  # 9 logical pages
            personal_bytes=2500,  # heavier personalization than a shop
            private_page_fraction=0.8,
        )
    )
    workload = generate_workload(
        [site],
        WorkloadSpec(
            name="portal",
            requests=1500,
            users=40,
            duration=2 * 3600.0,
            revisit_bias=0.75,  # people reload their portal pages
            logged_in_fraction=1.0,
            shared_card_fraction=0.15,  # some corporate-card users
        ),
    )
    config = SimulationConfig(
        delta=DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=6, min_count=2)
        ),
        verify=False,
    )
    print(
        f"replaying {len(workload.trace)} personalized requests from "
        f"{len(workload.trace.users)} users over {len(workload.trace.urls)} pages ..."
    )
    simulation = Simulation([site], config)
    report = simulation.run(workload)

    print()
    print(
        render_table(
            ["metric", "value"],
            [
                ["logical pages", report.distinct_documents],
                ["classes formed", report.classes],
                ["per-(page,user) base storage (classless)",
                 f"{report.classless_storage_bytes / 1024:.0f} KB"],
                ["per-class base storage (class-based)",
                 f"{report.class_storage_bytes / 1024:.0f} KB"],
                ["server-side storage reduction",
                 fmt_factor(report.storage_reduction_factor)],
                ["bandwidth savings", fmt_pct(report.bandwidth.savings)],
                ["deltas served", report.bandwidth.deltas_served],
            ],
            title="personalized portal: the scalability story",
        )
    )

    # -- the privacy check ---------------------------------------------------
    print("\nprivacy audit of every distributable base-file:")
    leaks = 0
    for cls in simulation.server.grouper.classes:
        for record in (cls.previous, cls.servable(cls.version)):
            if record is None or not record.body:
                continue
            version, base = record.version, record.body
            cards = find_card_numbers(base)
            leaks += len(cards)
            status = "LEAK: " + str(cards) if cards else "clean"
            print(f"  {cls.class_id} v{version} ({len(base):,} bytes): {status}")
    print(f"\ntotal private tokens leaked: {leaks}")
    assert leaks == 0, "anonymization failed!"


if __name__ == "__main__":
    main()
