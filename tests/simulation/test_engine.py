"""Tests for the end-to-end simulation engine (Fig. 2)."""

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.simulation.engine import Simulation, SimulationConfig
from repro.workload.generator import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def site():
    return SyntheticSite(
        SiteSpec(
            name="www.sim.example",
            products_per_category=3,
            categories=("laptops", "desktops"),
        )
    )


@pytest.fixture(scope="module")
def small_run(site):
    """One shared replay used by several assertions (it is expensive)."""
    workload = generate_workload(
        [site],
        WorkloadSpec(
            name="small", requests=250, users=8, duration=1200.0, revisit_bias=0.6
        ),
    )
    config = SimulationConfig(
        delta=DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=2, min_count=1)
        )
    )
    simulation = Simulation([site], config)
    report = simulation.run(workload)
    return simulation, report


class TestCorrectness:
    def test_zero_verify_failures(self, small_run):
        _, report = small_run
        assert report.verify_failures == 0
        assert report.requests == 250

    def test_deltas_dominate_after_warmup(self, small_run):
        _, report = small_run
        assert report.bandwidth.deltas_served > report.bandwidth.full_served

    def test_bandwidth_savings_positive(self, small_run):
        _, report = small_run
        assert report.bandwidth.savings > 0.3
        assert report.bandwidth.direct_bytes > report.bandwidth.total_sent_bytes


class TestScalability:
    def test_fewer_classes_than_documents(self, small_run):
        _, report = small_run
        # documents here counts distinct URLs; with personalization each URL
        # stands for many per-user variants, all sharing one class
        assert report.classes <= report.distinct_documents
        assert report.class_storage_bytes < report.classless_storage_bytes

    def test_storage_reduction(self, small_run):
        _, report = small_run
        # one shared base per class vs one per (document, user) pair
        assert report.storage_reduction_factor > 2


class TestLatency:
    def test_latency_improves(self, small_run):
        _, report = small_run
        assert report.latency_improvement > 1.0

    def test_latency_tracked_per_request(self, small_run):
        _, report = small_run
        assert report.latency_delta.count == report.requests
        assert report.latency_direct.count == report.requests


class TestProxy:
    def test_proxy_caches_base_files(self, small_run):
        simulation, report = small_run
        assert report.proxy_hit_rate > 0
        assert simulation.proxy.cache.stats.insertions > 0

    def test_proxy_disabled_still_correct(self, site):
        workload = generate_workload(
            [site],
            WorkloadSpec(name="noproxy", requests=60, users=4, duration=300.0),
        )
        config = SimulationConfig(
            proxy_enabled=False,
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(
                    enabled=True, documents=2, min_count=1
                )
            ),
        )
        report = Simulation([site], config).run(workload)
        assert report.verify_failures == 0
        assert report.proxy_hit_rate == 0.0


class TestObserver:
    @pytest.mark.parametrize("proxy_enabled", [True, False])
    def test_observer_sees_every_engine_response(self, site, proxy_enabled):
        workload = generate_workload(
            [site],
            WorkloadSpec(name="observed", requests=120, users=6, duration=600.0),
        )
        observed = {"doc": 0, "base": 0}

        def observe(request, response):
            is_base = DeltaServer.parse_base_file_url(request.url) is not None
            observed["base" if is_base else "doc"] += 1

        config = SimulationConfig(
            proxy_enabled=proxy_enabled,
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(documents=2, min_count=1)
            ),
        )
        simulation = Simulation([site], config, observer=observe)
        report = simulation.run(workload)
        assert report.verify_failures == 0
        assert observed["doc"] == report.requests
        assert observed["base"] == simulation.server.stats.base_files_served > 0
        if proxy_enabled:
            # the observer sits behind the proxy: cached base-files never
            # reach it
            upstream = simulation.proxy.stats.upstream_requests
            assert observed["base"] == upstream - observed["doc"]


class TestClients:
    def test_one_client_per_user(self, small_run):
        simulation, report = small_run
        assert simulation.client_for("user0001") is simulation.client_for("user0001")

    def test_client_uid_matches_trace_user(self, small_run):
        simulation, _ = small_run
        client = simulation.client_for("user0001")
        assert client.user_id == "user0001"
