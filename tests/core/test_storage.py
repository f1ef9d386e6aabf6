"""Tests for the base-file storage budget manager."""

import pytest

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import (
    AnonymizationConfig,
    DeltaServerConfig,
)
from repro.core.delta_server import DeltaServer
from repro.core.storage import StorageManager, class_storage_bytes
from repro.delta.vdelta import VdeltaEncoder
from repro.http.messages import Request
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook


def make_class(class_id: str, base: bytes | None, hits: int = 0) -> DocumentClass:
    cls = DocumentClass(
        class_id=class_id,
        server="www.s.com",
        hint="h",
        anonymization=AnonymizationConfig(enabled=False),
        policy=FirstResponsePolicy(),
        encoder=VdeltaEncoder(),
    )
    if base is not None:
        cls.adopt_base(base, owner_user=None, now=0.0)
    cls.stats.hits = hits
    return cls


class TestAccounting:
    def test_empty_class_zero_bytes(self):
        assert class_storage_bytes(make_class("c1", None)) == 0

    def test_raw_equals_distributable_counted_once(self):
        # anonymization disabled: distributable IS the raw base
        cls = make_class("c1", b"x" * 1000)
        assert class_storage_bytes(cls) == 1000

    def test_previous_generation_counted(self):
        cls = make_class("c1", b"x" * 1000)
        cls.adopt_base(b"y" * 800, owner_user=None, now=1.0)
        assert class_storage_bytes(cls) == 1800

    def test_total_bytes(self):
        manager = StorageManager()
        classes = [make_class("c1", b"x" * 100), make_class("c2", b"y" * 200)]
        assert manager.total_bytes(classes) == 300


class TestEnforcement:
    def test_no_budget_no_action(self):
        manager = StorageManager()
        classes = [make_class("c1", b"x" * 10_000)]
        assert manager.enforce(classes) == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            StorageManager(budget_bytes=0)

    def test_previous_dropped_before_bases(self):
        manager = StorageManager(budget_bytes=1500)
        cls = make_class("c1", b"x" * 1000, hits=10)
        cls.adopt_base(b"y" * 1000, owner_user=None, now=1.0)  # 2000 total
        reclaimed = manager.enforce([cls])
        assert reclaimed == 1000
        assert manager.stats.previous_drops == 1
        assert manager.stats.base_releases == 0
        assert cls.can_serve_deltas  # current base survived

    def test_coldest_class_released_first(self):
        manager = StorageManager(budget_bytes=1000)
        hot = make_class("hot", b"h" * 900, hits=100)
        cold = make_class("cold", b"c" * 900, hits=1)
        manager.enforce([hot, cold])
        assert cold.raw is None
        assert hot.raw is not None

    def test_protected_class_never_released(self):
        manager = StorageManager(budget_bytes=100)
        only = make_class("only", b"x" * 900, hits=0)
        manager.enforce([only], protect=only)
        assert only.raw is not None


class TestServerIntegration:
    def _stack(self, budget: int):
        site = SyntheticSite(
            SiteSpec(name="www.st.example", products_per_category=3,
                     categories=("laptops", "desktops"))
        )
        origin = OriginServer([site])
        rulebook = RuleBook()
        rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
        config = DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=False),
            storage_budget_bytes=budget,
        )
        return site, origin, DeltaServer(origin.fetch, config, rulebook)

    def test_budget_respected_and_service_continues(self):
        # budget fits roughly 2 base-files; the site has 6 pages
        site, origin, server = self._stack(budget=80_000)
        for pid, page in enumerate(site.all_pages()):
            url = site.url_for(page)
            for user in ("u1", "u2"):
                response = server.handle(
                    Request(url=url, cookies={"uid": user}), now=float(pid)
                )
                assert response.status == 200
        total = server.storage.total_bytes(server.grouper.classes)
        assert total <= 80_000
        assert server.storage.stats.base_releases > 0

    def test_released_class_readopts_on_next_request(self):
        site, origin, server = self._stack(budget=40_000)  # fits ~1 base
        urls = [site.url_for(p) for p in site.all_pages()[:3]]
        for i, url in enumerate(urls):
            server.handle(Request(url=url, cookies={"uid": "u1"}), now=float(i))
        # revisit the first URL: its class was released, must re-adopt
        response = server.handle(
            Request(url=urls[0], cookies={"uid": "u1"}), now=10.0
        )
        assert response.status == 200
        cls = server.class_of(urls[0])
        assert cls.raw is not None


class TestHistoryBudget:
    """Stage-0: on-disk history eviction, the live/history split, compaction."""

    def _store_with_history(self, tmp_path, classes):
        from repro.store import Store

        store = Store.open(tmp_path / "state", snapshot_every=4)
        for cls in classes:
            store.add_class(cls.class_id, cls.server, cls.hint)
            for v in range(1, 6):
                store.commit_base(
                    cls.class_id, v, b"v" * 400 + str(v).encode() * 40
                )
        return store

    def test_usage_reports_live_history_split(self, tmp_path):
        cls = make_class("c1", b"x" * 1000)
        store = self._store_with_history(tmp_path, [cls])
        manager = StorageManager(store=store)
        live, history = manager.usage([cls])
        assert live == 1000
        assert history == store.live_pack_bytes > 0
        assert manager.stats.live_bytes == 1000
        assert manager.stats.history_bytes == history
        assert manager.stats.used_bytes == live + history
        store.close()

    def test_history_evicted_before_bases_released(self, tmp_path):
        hot = make_class("hot", b"h" * 1000, hits=100)
        cold = make_class("cold", b"c" * 1000, hits=1)
        store = self._store_with_history(tmp_path, [hot, cold])
        history = store.live_pack_bytes
        # Budget covers both live bases, but not the full history: stage 0
        # must reclaim history without touching any in-memory base.
        budget = 2000 + history // 2
        manager = StorageManager(budget, store=store)
        reclaimed = manager.enforce([hot, cold])
        assert reclaimed > 0
        assert manager.stats.history_evictions > 0
        assert manager.stats.base_releases == 0
        assert hot.raw is not None and cold.raw is not None
        # Coldest class's history went first; its latest version survives.
        assert set(store.class_state("cold").entries) == {5}
        store.close()

    def test_release_is_journaled_to_the_store(self, tmp_path):
        from repro.store import Store

        hot = make_class("hot", b"h" * 1000, hits=100)
        cold = make_class("cold", b"c" * 1000, hits=1)
        store = self._store_with_history(tmp_path, [hot, cold])
        manager = StorageManager(1000, store=store)
        manager.enforce([hot, cold], protect=hot)
        assert manager.stats.base_releases > 0
        assert cold.raw is None
        assert store.class_state("cold").latest is None
        store.close()
        # A restart cannot resurrect the released payloads.
        reopened = Store.open(tmp_path / "state")
        assert reopened.class_state("cold").latest is None
        reopened.close()

    def test_compaction_triggered_by_garbage_ratio(self, tmp_path):
        cold = make_class("cold", b"c" * 1000, hits=1)
        store = self._store_with_history(tmp_path, [cold])
        pack_before = store.pack_bytes
        manager = StorageManager(
            1100, store=store, compact_garbage_ratio=0.3
        )
        manager.enforce([cold])
        assert manager.stats.compactions == 1
        assert store.snapshot()["generation"] == 2
        assert store.pack_bytes < pack_before
        store.close()

    def test_without_store_behaves_as_before(self):
        manager = StorageManager(budget_bytes=1500)
        live, history = manager.usage([make_class("c1", b"x" * 1000)])
        assert (live, history) == (1000, 0)
