"""Integration tests: the full Fig. 2 architecture under realistic scenarios."""

import pytest

from repro.core.config import (
    AnonymizationConfig,
    BaseFileConfig,
    DeltaServerConfig,
)
from repro.origin.private import find_card_numbers
from repro.origin.site import SiteSpec, SyntheticSite, UrlStyle
from repro.simulation.engine import Simulation, SimulationConfig
from repro.workload.generator import WorkloadSpec, generate_workload


def fast_anon() -> AnonymizationConfig:
    return AnonymizationConfig(enabled=True, documents=2, min_count=1)


class TestMultiSite:
    def test_three_sites_three_url_styles(self):
        """One delta-server fronting three differently organized sites."""
        sites = [
            SyntheticSite(
                SiteSpec(
                    name=f"www.site{i}.example",
                    url_style=style,
                    products_per_category=2,
                    categories=("laptops", "desktops"),
                )
            )
            for i, style in enumerate(UrlStyle)
        ]
        workload = generate_workload(
            sites,
            WorkloadSpec(
                name="multi", requests=200, users=6, duration=900.0, revisit_bias=0.6
            ),
        )
        config = SimulationConfig(delta=DeltaServerConfig(anonymization=fast_anon()))
        simulation = Simulation(sites, config)
        report = simulation.run(workload)
        assert report.verify_failures == 0
        # classes never span sites
        for cls in simulation.server.grouper.classes:
            servers = {url.split("/")[0] for url in cls.members}
            assert len(servers) == 1
        assert report.bandwidth.deltas_served > 0


class TestPrivacyEndToEnd:
    def test_no_private_data_ever_distributed(self):
        """THE privacy property: no user's card number appears in any
        base-file that was ever servable, nor in any proxy-cached entry."""
        site = SyntheticSite(
            SiteSpec(
                name="www.priv.example",
                products_per_category=2,
                categories=("laptops",),
                private_page_fraction=1.0,  # every page shows the account box
            )
        )
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="priv",
                requests=150,
                users=6,
                duration=600.0,
                revisit_bias=0.5,
                logged_in_fraction=1.0,
                shared_card_fraction=0.3,
            ),
        )
        config = SimulationConfig(
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(
                    enabled=True, documents=4, min_count=2
                )
            )
        )
        simulation = Simulation([site], config)
        report = simulation.run(workload)
        assert report.verify_failures == 0
        for cls in simulation.server.grouper.classes:
            for record in (cls.servable(cls.version), cls.previous):
                if record is None:
                    continue
                base = record.body
                if base:
                    assert not find_card_numbers(base), (
                        f"private data leaked into {cls.class_id} v{version}"
                    )
        # proxy cache holds only base-files, which are anonymized
        for url, entry in simulation.proxy.cache._entries.items():
            assert not find_card_numbers(entry.response.body), (
                f"leak via proxy: {url}"
            )

    def test_anonymization_disabled_leaks(self):
        """Negative control: with anonymization off, the owner's private
        data WOULD end up in the shared base-file (why Section V exists)."""
        site = SyntheticSite(
            SiteSpec(
                name="www.leak.example",
                products_per_category=1,
                categories=("laptops",),
                private_page_fraction=1.0,
            )
        )
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="leak",
                requests=40,
                users=4,
                duration=200.0,
                logged_in_fraction=1.0,
            ),
        )
        config = SimulationConfig(
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(enabled=False)
            )
        )
        simulation = Simulation([site], config)
        simulation.run(workload)
        leaked = any(
            find_card_numbers(cls.current.body if cls.current else b"")
            for cls in simulation.server.grouper.classes
        )
        assert leaked


class TestContentDrift:
    def test_basic_rebase_recovers_from_drift(self):
        """When a site's content shifts wholesale, deltas blow up and the
        basic-rebase path must adopt a fresh base."""
        from repro.core.delta_server import DeltaServer
        from repro.http.messages import HEADER_ACCEPT_DELTA, Request, Response
        from repro.http.messages import base_ref

        from repro.origin.text import paragraph, rng_for

        generation = {"value": 0}

        async def shifting_origin(request: Request, now: float) -> Response:
            # Each generation is fresh prose: nothing to copy across the shift.
            rng = rng_for("drift", generation["value"])
            body = (
                f"<html>generation {generation['value']} "
                + paragraph(rng, 12_000)
                + "</html>"
            ).encode()
            return Response(status=200, body=body)

        config = DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=False),
            base_file=BaseFileConfig(basic_rebase_ratio=0.5, ratio_smoothing=1.0),
        )
        server = DeltaServer(shifting_origin, config)
        url = "www.drift.example/page?id=1"

        def fetch(user: str, now: float) -> Response:
            request = Request(url=url, cookies={"uid": user})
            cls = server.class_of(url)
            if cls is not None and cls.can_serve_deltas:
                request.headers.set(
                    HEADER_ACCEPT_DELTA, base_ref(cls.class_id, cls.version)
                )
            return server.handle(request, now)

        fetch("u1", 0.0)
        fetch("u2", 1.0)  # delta vs generation-0 base: tiny
        generation["value"] = 1  # content shifts completely
        fetch("u3", 2.0)
        fetch("u4", 3.0)
        assert server.stats.basic_rebases >= 1
        cls = server.class_of(url)
        assert b"generation 1" in cls.raw.body


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        site = SyntheticSite(
            SiteSpec(name="www.det.example", products_per_category=2)
        )

        def run():
            workload = generate_workload(
                [site],
                WorkloadSpec(name="det", requests=80, users=5, duration=400.0),
            )
            config = SimulationConfig(
                delta=DeltaServerConfig(anonymization=fast_anon())
            )
            report = Simulation([site], config).run(workload)
            return (
                report.bandwidth.total_sent_bytes,
                report.bandwidth.deltas_served,
                report.classes,
                report.group_rebases,
            )

        assert run() == run()
