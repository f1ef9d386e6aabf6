"""Tests for the grouping mechanism (paper Section III)."""

import random

import pytest

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig, GroupingConfig
from repro.core.grouping import Grouper
from repro.core.sketch import MinHashSketcher
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder
from repro.url.parts import URLParts
from repro.url.rules import RuleBook


def doc(category: str, item: int, size: int = 4000) -> bytes:
    """Synthetic docs: same-category docs share a big skeleton."""
    skeleton = (f"<skeleton category={category}>" * (size // 30)).encode()
    detail = (f"<item {item} unique content {item}>" * 20).encode()
    return skeleton + detail


def rpage(seed: int, size: int = 4000) -> bytes:
    """Random-content page (high shingle diversity, for sketch tests)."""
    rng = random.Random(seed)
    return bytes(rng.randrange(256) for _ in range(size))


def family_page(family: int, item: int) -> bytes:
    """Pages of one family share a big random skeleton + small unique tail."""
    return rpage(family, 3800) + rpage(family * 1000 + item, 200)


def make_grouper(
    config: GroupingConfig | None = None,
    seed: int = 1,
    sketcher: MinHashSketcher | None = MinHashSketcher(),
) -> Grouper:
    estimator = LightEstimator()
    encoder = VdeltaEncoder()
    counter = iter(range(1, 10_000))

    def factory(server: str, hint: str) -> DocumentClass:
        cls = DocumentClass(
            class_id=f"c{next(counter)}",
            server=server,
            hint=hint,
            anonymization=AnonymizationConfig(enabled=False),
            policy=FirstResponsePolicy(),
            encoder=encoder,
        )
        return cls

    return Grouper(
        config=config or GroupingConfig(),
        rulebook=RuleBook(),
        estimator=estimator,
        class_factory=factory,
        sketcher=sketcher,
        seed=seed,
    )


def classify(grouper: Grouper, url: str, document: bytes):
    """Classify and, if a class was created, give it the doc as base."""
    cls, created = grouper.classify(url, document)
    if created:
        cls.adopt_base(document, owner_user=None, now=0.0)
    return cls, created


class TestBasicGrouping:
    def test_first_request_creates_class(self):
        grouper = make_grouper()
        cls, created = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        assert created
        assert grouper.class_count() == 1
        assert "www.a.com/laptops?id=1" in cls.members

    def test_same_url_reuses_class_without_search(self):
        grouper = make_grouper()
        cls1, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        cls2, created = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        assert not created
        assert cls1 is cls2
        assert cls1.stats.hits == 2

    def test_similar_document_joins_class(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        cls, created = classify(grouper, "www.a.com/laptops?id=2", doc("laptops", 2))
        assert not created
        assert grouper.class_count() == 1
        assert len(cls.members) == 2

    def test_dissimilar_document_new_class(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        _, created = classify(grouper, "www.a.com/desktops?id=1", doc("desktops", 1))
        assert created
        assert grouper.class_count() == 2

    def test_different_server_never_shares_class(self):
        """"It is very unlikely that two documents originating from
        different servers will be close enough" — new class outright."""
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        _, created = classify(grouper, "www.b.com/laptops?id=1", doc("laptops", 1))
        assert created
        assert grouper.class_count() == 2

    def test_hint_restricts_candidates(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        classify(grouper, "www.a.com/desktops?id=1", doc("desktops", 1))
        # same hint-part as the laptops class: only that class is probed
        cls, created = classify(grouper, "www.a.com/laptops?id=3", doc("laptops", 3))
        assert not created
        assert cls.hint == "laptops"


class TestSearchHeuristics:
    def test_max_tries_bounds_probes(self):
        config = GroupingConfig(max_tries=2, match_threshold=0.01)
        grouper = make_grouper(config)
        # low threshold: nothing ever matches; each request probes <= 2
        for i in range(6):
            classify(grouper, f"www.a.com/cat{i}?id=0", doc(f"cat{i}", 0))
        per_request_tries = grouper.stats.total_tries / max(grouper.stats.requests - 1, 1)
        assert per_request_tries <= 2

    def test_matches_within_couple_of_tries_with_hints(self):
        """Section VI-B: 'groups requests in classes after a couple of
        tries' on well-structured sites."""
        grouper = make_grouper()
        for i in range(8):
            classify(grouper, f"www.a.com/laptops?id={i}", doc("laptops", i))
        assert grouper.stats.mean_tries <= 2

    def test_first_match_vs_best_match(self):
        best_config = GroupingConfig(first_match=False)
        grouper = make_grouper(best_config)
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        cls, created = classify(grouper, "www.a.com/laptops?id=2", doc("laptops", 2))
        assert not created

    def test_popularity_ordering_prefers_hot_classes(self):
        grouper = make_grouper(GroupingConfig(max_tries=1))
        # Build two classes with same hint via manual registry manipulation:
        # class A hot, class B cold; a new ambiguous doc should probe A first.
        cls_a, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        for _ in range(5):
            classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        assert cls_a.popularity >= 5


class TestManualGrouping:
    def test_manual_pin_overrides_search(self):
        grouper = make_grouper()
        cls, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        grouper.pin_manual(r"www\.a\.com/special", cls.class_id)
        pinned, created = classify(
            grouper, "www.a.com/special?id=9", doc("desktops", 9)
        )
        assert not created
        assert pinned is cls
        assert grouper.stats.manual == 1

    def test_pin_to_unknown_class_rejected(self):
        grouper = make_grouper()
        with pytest.raises(KeyError):
            grouper.pin_manual(r".*", "no-such-class")


class TestStats:
    def test_created_and_matched_counts(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        classify(grouper, "www.a.com/laptops?id=2", doc("laptops", 2))
        classify(grouper, "www.a.com/desktops?id=1", doc("desktops", 1))
        assert grouper.stats.created == 2
        assert grouper.stats.matched == 1

    def test_tries_histogram_populated(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        classify(grouper, "www.a.com/laptops?id=2", doc("laptops", 2))
        assert sum(grouper.stats.tries_histogram.values()) == 1


class TestSketchPolicy:
    def test_content_aware_match_without_hint(self):
        """A fresh-hint URL with near-duplicate content joins the class
        through the LSH index — the case the old same-server scan paid
        O(classes) for."""
        grouper = make_grouper()
        first, _ = classify(grouper, "www.a.com/laptops?id=1", family_page(1, 1))
        # Unique hint: no same-hint class exists for this key.
        cls, created = classify(
            grouper, "www.a.com/session-xyz/laptops?id=2", family_page(1, 2)
        )
        assert not created
        assert cls is first
        assert grouper.stats.sketch_hits >= 1

    def test_sketch_miss_creates_class(self):
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", family_page(1, 1))
        _, created = classify(
            grouper, "www.a.com/session-abc/other?id=1", family_page(99, 1)
        )
        assert created
        assert grouper.stats.sketch_misses >= 1

    def test_scan_policy_still_scans_same_server(self):
        grouper = make_grouper(sketcher=None)
        first, _ = classify(grouper, "www.a.com/laptops?id=1", family_page(1, 1))
        cls, created = classify(
            grouper, "www.a.com/session-xyz/laptops?id=2", family_page(1, 2)
        )
        assert not created and cls is first
        assert grouper.stats.sketch_hits == 0 == grouper.stats.sketch_misses

    def test_small_hinted_pool_skips_the_sketch_lookup(self):
        """Heuristic 2 intact: a bounded same-hint pool is probed whole,
        without consulting (or needing) the LSH index."""
        grouper = make_grouper()
        classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        lookups = grouper.stats.sketch_hits + grouper.stats.sketch_misses
        cls, created = classify(grouper, "www.a.com/laptops?id=2", doc("laptops", 2))
        assert not created and cls.hint == "laptops"
        assert grouper.stats.sketch_hits + grouper.stats.sketch_misses == lookups

    def test_new_class_registered_under_document_signature(self):
        grouper = make_grouper()
        cls, created = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        assert created
        assert cls.match_base.signature is not None
        assert grouper._sketch_index.candidates(cls.match_base.signature)[0] == cls.class_id

    def test_refresh_sketch_tracks_base_changes(self):
        grouper = make_grouper()
        cls, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        old = cls.match_base.signature
        with cls.lock:
            cls.adopt_base(doc("desktops", 5), owner_user=None, now=1.0)
            refreshed = grouper.refresh_sketch(cls)
        assert refreshed is not None and refreshed != old
        assert cls.match_base.signature == refreshed
        # The index moved the class to its new content's buckets.
        assert cls.class_id in grouper._sketch_index.candidates(refreshed)
        # And a second refresh with an unchanged base is a no-op.
        with cls.lock:
            assert grouper.refresh_sketch(cls) == refreshed

    def test_refresh_sketch_unregisters_baseless_class(self):
        grouper = make_grouper()
        cls, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        sig = cls.match_base.signature
        with cls.lock:
            cls.release_base()
            assert grouper.refresh_sketch(cls) is None
        assert cls.match_base is None
        assert cls.class_id not in grouper._sketch_index.candidates(sig)


class TestBestMatchTries:
    def test_records_probe_count_of_best_match(self):
        """Regression: best-match mode used to record the loop-final try
        count, inflating the histogram whenever probing continued past
        the eventual best match."""
        grouper = make_grouper(GroupingConfig(first_match=False, match_threshold=0.5))
        # Two matching same-hint classes; the popular one is probed first
        # and is also the better (identical-content) match.
        best, _ = classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        other, _ = classify(grouper, "www.a.com/laptops2?id=1", doc("laptops", 500))
        # Re-key 'other' under the same hint so both are eligible.
        with grouper._registry_lock:
            grouper._by_key[("www.a.com", "laptops")].append(other)
        for _ in range(5):
            classify(grouper, "www.a.com/laptops?id=1", doc("laptops", 1))
        histogram_before = dict(grouper.stats.tries_histogram)
        cls, created = classify(grouper, "www.a.com/laptops?id=9", doc("laptops", 1))
        assert not created and cls is best
        new = {
            tries: count - histogram_before.get(tries, 0)
            for tries, count in grouper.stats.tries_histogram.items()
            if count != histogram_before.get(tries, 0)
        }
        # Both candidates were probed (no early stop), but the best match
        # surfaced on probe 1 — that is what the histogram must record.
        assert new == {1: 1}
        assert grouper.stats.total_tries >= 2


class TestShardRngDeterminism:
    def test_shard_draws_independent_of_other_shards(self):
        """Regression for the shared-RNG race: one shard's random probe
        order must be a pure function of its own history, not of how many
        draws other shards made in between."""
        eligible_builder = lambda g: [  # noqa: E731 - tiny test helper
            classify(g, f"www.a.com/cat{i}?id=0", doc(f"cat{i}", 0))[0]
            for i in range(12)
        ]
        # Tiny threshold: nothing matches, so all 12 classes are created.
        config = GroupingConfig(max_tries=4, popular_fraction=0.25, match_threshold=0.01)

        g1 = make_grouper(config)
        classes1 = eligible_builder(g1)
        order1 = g1._probe_order(classes1, g1._shard_rng(("www.a.com", "x")))

        g2 = make_grouper(config)
        classes2 = eligible_builder(g2)
        # Interleave draws from OTHER shards before shard x draws.
        for key in [("www.a.com", "y"), ("www.b.com", "z")]:
            g2._probe_order(classes2, g2._shard_rng(key))
        order2 = g2._probe_order(classes2, g2._shard_rng(("www.a.com", "x")))

        assert [c.class_id for c in order1] == [c.class_id for c in order2]

    def test_different_seeds_diverge(self):
        config = GroupingConfig(max_tries=4, popular_fraction=0.0, match_threshold=0.01)
        orders = []
        for seed in (1, 2):
            g = make_grouper(config, seed=seed)
            classes = [
                classify(g, f"www.a.com/cat{i}?id=0", doc(f"cat{i}", 0))[0]
                for i in range(12)
            ]
            order = g._probe_order(classes, g._shard_rng(("www.a.com", "x")))
            orders.append([classes.index(c) for c in order])
        assert orders[0] != orders[1]


class TestCreateClass:
    def test_create_class_registers_key(self):
        grouper = make_grouper()
        parts = URLParts("www.x.com", "books", "id=1")
        cls = grouper.create_class(parts)
        assert cls.key == ("www.x.com", "books")
        assert grouper.class_by_id(cls.class_id) is cls


class TestUrlClassMap:
    def test_class_for_url_tracks_membership(self):
        grouper = make_grouper()
        assert grouper.class_for_url("www.a.com/x?id=1") is None
        cls, created = classify(grouper, "www.a.com/x?id=1", doc("x", 1))
        assert created
        assert grouper.class_for_url("www.a.com/x?id=1") is cls
        # A second member URL matched into the same class maps there too.
        other, created = classify(grouper, "www.a.com/x?id=2", doc("x", 2))
        assert other is cls and not created
        assert grouper.class_for_url("www.a.com/x?id=2") is cls
        assert grouper.class_for_url("www.a.com/never-seen") is None
