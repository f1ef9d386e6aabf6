#!/usr/bin/env python3
"""Replay a synthetic commercial-site trace through the full architecture.

This is the scenario behind the paper's Table II: an access log of
traditionally uncachable dynamic traffic replayed through
client -> proxy-cache -> delta-server -> origin, measuring how much of the
outbound traffic the class-based scheme eliminates.

Run:  python examples/ecommerce_site.py  [--requests N]
"""

import argparse

from repro.core import AnonymizationConfig, DeltaServerConfig
from repro.metrics import fmt_factor, fmt_pct, render_table
from repro.origin import SiteSpec, SyntheticSite
from repro.simulation import Simulation, SimulationConfig
from repro.workload import WorkloadSpec, generate_workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--users", type=int, default=20)
    args = parser.parse_args()

    site = SyntheticSite(
        SiteSpec(
            name="www.megashop.example",
            categories=("laptops", "desktops", "tablets"),
            products_per_category=4,
            dynamic_bytes=2200,
        )
    )
    workload = generate_workload(
        [site],
        WorkloadSpec(
            name="ecommerce",
            requests=args.requests,
            users=args.users,
            duration=4 * 3600.0,
            revisit_bias=0.7,
            zipf_alpha=1.0,
        ),
    )
    print(
        f"replaying {len(workload.trace)} requests from "
        f"{len(workload.trace.users)} users over "
        f"{len(workload.trace.urls)} dynamic documents ..."
    )
    config = SimulationConfig(
        verify=False,
        delta=DeltaServerConfig(
            # basic M=1 anonymization with a short warm-up, as in Table II
            anonymization=AnonymizationConfig(documents=3, min_count=1)
        ),
    )
    simulation = Simulation([site], config)
    report = simulation.run(workload)
    bw = report.bandwidth

    print()
    print(
        render_table(
            ["metric", "value"],
            [
                ["requests", bw.requests],
                ["direct KB (no delta-server)", bw.direct_kb],
                ["delta KB (with delta-server)", bw.delta_kb],
                ["bandwidth savings", fmt_pct(bw.savings)],
                ["reduction factor", fmt_factor(bw.reduction_factor)],
                ["deltas / full responses", f"{bw.deltas_served} / {bw.full_served}"],
                ["classes formed", report.classes],
                ["group / basic rebases", f"{report.group_rebases} / {report.basic_rebases}"],
                ["proxy hit rate (base-files)", fmt_pct(report.proxy_hit_rate)],
                ["mean latency, direct", f"{report.latency_direct.mean:.2f}s"],
                ["mean latency, delta", f"{report.latency_delta.mean:.2f}s"],
                ["median latency improvement",
                 fmt_factor(report.latency_direct.percentile(50)
                            / max(report.latency_delta.percentile(50), 1e-9))],
            ],
            title="e-commerce replay (56k modem clients)",
        )
    )

    print("\nper-class inventory (top 5 by popularity):")
    classes = sorted(
        simulation.server.grouper.classes, key=lambda c: c.popularity, reverse=True
    )
    rows = [
        [
            cls.class_id,
            cls.hint,
            len(cls.members),
            cls.popularity,
            cls.stats.deltas_served,
            len(cls.current.body) if cls.current else 0,
        ]
        for cls in classes[:5]
    ]
    print(
        render_table(
            ["class", "hint", "members", "hits", "deltas", "base bytes"], rows
        )
    )


if __name__ == "__main__":
    main()
