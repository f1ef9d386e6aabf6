"""Additional engine tests: custom rulebooks, session URLs, report math."""

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.origin.site import SiteSpec, SyntheticSite
from repro.simulation.engine import Simulation, SimulationConfig
from repro.url.rules import RuleBook
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.trace import Trace, TraceRecord


def fast_config(**kwargs) -> SimulationConfig:
    return SimulationConfig(
        delta=DeltaServerConfig(
            anonymization=AnonymizationConfig(documents=2, min_count=1)
        ),
        **kwargs,
    )


@pytest.fixture(scope="module")
def site():
    return SyntheticSite(
        SiteSpec(name="www.ex.example", products_per_category=2,
                 categories=("laptops",))
    )


class TestCustomRulebook:
    def test_custom_rulebook_used(self, site):
        rulebook = RuleBook()
        # hint pins the exact page: sessions of one page share a class
        rulebook.add_rule(
            site.spec.name, r"(?P<hint>[^/?]+\?id=\d+)(?:&(?P<rest>.*))?$"
        )
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="rb",
                requests=120,
                users=6,
                duration=600.0,
                session_urls=True,
                logged_in_fraction=1.0,
            ),
        )
        simulation = Simulation([site], fast_config(), rulebook=rulebook)
        report = simulation.run(workload)
        assert report.verify_failures == 0
        # classes collapse onto logical pages despite per-user URLs
        assert report.classes <= 2
        assert report.distinct_documents > report.classes

    def test_default_rulebook_built_from_sites(self, site):
        simulation = Simulation([site], fast_config())
        # the heuristic/hint rules were installed for the site's server
        assert simulation.server.grouper is not None


class TestSessionUrlReplay:
    def test_session_urls_verify_clean(self, site):
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="sess",
                requests=100,
                users=5,
                duration=500.0,
                session_urls=True,
                logged_in_fraction=1.0,
            ),
        )
        report = Simulation([site], fast_config()).run(workload)
        assert report.verify_failures == 0


class TestReportMath:
    @pytest.fixture(scope="class")
    def report(self, site):
        workload = generate_workload(
            [site],
            WorkloadSpec(name="m", requests=80, users=5, duration=400.0),
        )
        return Simulation([site], fast_config()).run(workload)

    def test_documents_per_class(self, report):
        assert report.documents_per_class == pytest.approx(
            report.distinct_documents / report.classes
        )

    def test_storage_reduction_positive(self, report):
        assert report.storage_reduction_factor > 0

    def test_latency_counts_match_requests(self, report):
        assert report.latency_delta.count == report.requests

    def test_total_sent_includes_base_upstream(self, report):
        bw = report.bandwidth
        assert bw.total_sent_bytes == bw.sent_bytes + bw.base_file_upstream_bytes


def test_scheme_prefixed_urls_count_toward_classless_storage(site):
    """Trace URLs may carry ``http://``; the classless baseline still
    counts their renders instead of skipping every one."""
    trace = generate_workload(
        [site], WorkloadSpec(name="scheme", requests=60, users=4, duration=300.0)
    ).trace
    prefixed = Trace(
        "scheme",
        [TraceRecord(r.timestamp, r.user, "http://" + r.url) for r in trace],
    )
    bare = Simulation([site], fast_config()).run(trace)
    report = Simulation([site], fast_config()).run(prefixed)
    assert report.verify_failures == 0
    assert report.classless_storage_bytes == bare.classless_storage_bytes > 0
    assert report.storage_reduction_factor == bare.storage_reduction_factor
