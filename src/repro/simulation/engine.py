"""End-to-end simulation of the deployment architecture (paper Fig. 2).

Wires clients (one browser per trace user) → optional proxy-cache →
delta-server → origin, replays a trace, and produces the numbers the
paper's evaluation reports: bandwidth (Table II), user latency (Section
VI-A), class/storage scalability (Section VI-B), and a full correctness
check — every reconstructed document is compared byte-for-byte against a
direct origin render, because a delta scheme that corrupts pages saves
bandwidth nobody wants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.client.browser import DeltaClient, DocumentUnavailable
from repro.core.config import DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.http.cookies import CookieJar
from repro.http.messages import Request
from repro.metrics.collector import BandwidthReport
from repro.network.latency import LatencyTracker
from repro.network.link import MODEM_56K, LinkSpec
from repro.origin.server import OriginServer
from repro.origin.site import SyntheticSite
from repro.proxy.proxy import ProxyCache
from repro.url.rules import RuleBook
from repro.workload.generator import GeneratedWorkload
from repro.workload.trace import Trace

#: the simulated proxy's cache capacity
PROXY_CAPACITY_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Knobs of one end-to-end replay."""

    delta: DeltaServerConfig = field(default_factory=DeltaServerConfig)
    proxy_enabled: bool = True
    client_link: LinkSpec = MODEM_56K
    #: verify every reconstructed document against a direct origin render
    verify: bool = True


@dataclass(slots=True)
class SimulationReport:
    """Everything the paper's evaluation section reports, for one trace."""

    bandwidth: BandwidthReport
    latency_direct: LatencyTracker
    latency_delta: LatencyTracker
    requests: int = 0
    verify_failures: int = 0
    distinct_documents: int = 0
    classes: int = 0
    #: server-side base-file storage under class-based delta-encoding
    class_storage_bytes: int = 0
    #: what classless delta-encoding would store (one base per document)
    classless_storage_bytes: int = 0
    group_rebases: int = 0
    basic_rebases: int = 0
    proxy_hit_rate: float = 0.0
    mean_grouping_tries: float = 0.0

    @property
    def documents_per_class(self) -> float:
        """The paper's 10–100× documents-to-classes compression."""
        return self.distinct_documents / self.classes if self.classes else 0.0

    @property
    def storage_reduction_factor(self) -> float:
        if not self.class_storage_bytes:
            return float("inf")
        return self.classless_storage_bytes / self.class_storage_bytes

    @property
    def latency_improvement(self) -> float:
        """Mean direct latency / mean delta-path latency."""
        if not self.latency_delta.mean:
            return float("inf")
        return self.latency_direct.mean / self.latency_delta.mean


class Simulation:
    """One replayable instance of the Fig. 2 architecture."""

    def __init__(
        self,
        sites: list[SyntheticSite],
        config: SimulationConfig | None = None,
        rulebook: RuleBook | None = None,
    ) -> None:
        self.config = config or SimulationConfig()
        self.origin = OriginServer(sites)
        if rulebook is None:
            rulebook = RuleBook()
            for site in sites:
                rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
        self.server = DeltaServer(self.origin.fetch, self.config.delta, rulebook)
        self.proxy = (
            ProxyCache(self.server.handle, PROXY_CAPACITY_BYTES)
            if self.config.proxy_enabled
            else None
        )
        self._upstream = self.proxy.handle if self.proxy else self.server.handle
        self._clients: dict[str, DeltaClient] = {}
        self._sites = {site.spec.name: site for site in sites}

    def client_for(self, user: str) -> DeltaClient:
        """The browser instance of trace user ``user`` (created on demand)."""
        client = self._clients.get(user)
        if client is None:
            jar = CookieJar(cookies={"uid": user})
            client = DeltaClient(self._upstream, jar)
            self._clients[user] = client
        return client

    def run(self, workload: GeneratedWorkload | Trace) -> SimulationReport:
        """Replay a trace and report the paper's evaluation quantities."""
        if isinstance(workload, GeneratedWorkload):
            trace = workload.trace
            for user, group in workload.shared_card_groups.items():
                self.origin.register_shared_card(user, group)
        else:
            trace = workload

        report = SimulationReport(
            bandwidth=BandwidthReport(name=trace.name),
            latency_direct=LatencyTracker(self.config.client_link, seed=3),
            latency_delta=LatencyTracker(self.config.client_link, seed=4),
        )
        for record in trace:
            client = self.client_for(record.user)
            before_doc = client.stats.document_bytes
            before_base = client.stats.base_file_bytes
            try:
                body = client.get(record.url, record.timestamp)
            except DocumentUnavailable as unavailable:
                # An error page passes through the delta-server untouched;
                # it is checked against the origin's like any other body.
                body = unavailable.response.body
            report.requests += 1
            if self.config.verify:
                direct = self._direct_render(record.user, record.url, record.timestamp)
                if body != direct:
                    report.verify_failures += 1
            # What the user actually waited for: the document response
            # plus any base-file fetch performed in-line.
            transferred = (
                client.stats.document_bytes
                - before_doc
                + client.stats.base_file_bytes
                - before_base
            )
            report.latency_delta.record(transferred)
            report.latency_direct.record(len(body))

        self._fill_server_side(report)
        return report

    def _direct_render(self, user: str, url: str, now: float) -> bytes:
        request = Request(url=url, cookies={"uid": user}, client_id=user)
        return self.origin.handle(request, now).body

    def _fill_server_side(self, report: SimulationReport) -> None:
        stats = self.server.stats
        bw = report.bandwidth
        bw.requests = stats.requests
        bw.direct_bytes = stats.direct_bytes
        bw.sent_bytes = stats.sent_bytes
        bw.deltas_served = stats.deltas_served
        bw.full_served = stats.full_served
        bw.base_file_upstream_bytes = stats.base_file_bytes
        bw.base_file_downstream_bytes = sum(
            c.stats.base_file_bytes for c in self._clients.values()
        )

        classes = self.server.grouper.classes
        report.classes = len(classes)
        report.distinct_documents = len(
            {url for cls in classes for url in cls.members}
        )
        report.class_storage_bytes = sum(
            len(cls.raw_base or b"") for cls in classes
        )
        # Classless delta-encoding stores one base-file per document — and
        # per *user* for personalized pages; approximate with the rendered
        # snapshot size per distinct (document, user) pair seen.
        report.classless_storage_bytes = self._classless_storage()
        report.group_rebases = stats.group_rebases
        report.basic_rebases = stats.basic_rebases
        report.mean_grouping_tries = self.server.grouper.stats.mean_tries
        if self.proxy:
            report.proxy_hit_rate = self.proxy.cache.stats.hit_rate

    def _classless_storage(self) -> int:
        """Storage a per-(document, user) base-file scheme would need."""
        total = 0
        for user, client in self._clients.items():
            for url in client.stats.urls_fetched:
                site = self._sites.get(url.split("/")[0])
                if site is None:
                    continue
                total += len(
                    self._direct_render(user, url, 0.0)
                )
        return total
