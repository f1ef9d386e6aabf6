"""Tests for base-file selection policies (paper Section IV, Table III)."""

import random

import pytest

from repro.core.base_file import (
    FirstResponsePolicy,
    OnlineOptimalPolicy,
    RandomizedPolicy,
    make_policy,
    offline_best,
)
from repro.core.config import BaseFileConfig, EvictionVariant


def toy_delta(base: bytes, target: bytes) -> int:
    """Cheap, metric-like stand-in for delta size in policy unit tests."""
    return abs(len(base) - len(target)) + sum(
        1 for a, b in zip(base, target) if a != b
    )


def docs_around(center: int, spread: list[int]) -> list[bytes]:
    """Documents whose pairwise toy-deltas reflect distance on a line."""
    return [bytes([65]) * (center + s) for s in spread]


class TestFirstResponse:
    def test_uses_first_forever(self):
        policy = FirstResponsePolicy()
        policy.observe(b"first", "u1")
        policy.observe(b"second", "u2")
        assert policy.current() == b"first"
        assert policy.current_owner() == "u1"

    def test_empty(self):
        assert FirstResponsePolicy().current() is None

    def test_flush(self):
        policy = FirstResponsePolicy()
        policy.observe(b"first")
        policy.flush()
        assert policy.current() is None


class TestRandomized:
    def _policy(self, p=1.0, k=4, eviction=EvictionVariant.WORST, seed=1):
        config = BaseFileConfig(
            sample_probability=p, capacity=k, eviction=eviction
        )
        return RandomizedPolicy(config, toy_delta, random.Random(seed))

    def test_samples_with_probability_one(self):
        policy = self._policy(p=1.0, k=8)
        for i in range(5):
            policy.observe(bytes([65]) * (10 + i))
        assert len(policy.stored_documents) == 5

    def test_sampling_probability_respected(self):
        policy = self._policy(p=0.2, k=100)
        for i in range(500):
            policy.observe(bytes([65]) * (10 + i % 7))
        stored = len(policy.stored_documents)
        assert 50 < stored < 150  # ~100 expected

    def test_capacity_enforced(self):
        policy = self._policy(p=1.0, k=3)
        for i in range(10):
            policy.observe(bytes([65]) * (10 + i))
        assert len(policy.stored_documents) == 3

    def test_picks_medoid(self):
        policy = self._policy(p=1.0, k=10)
        # cluster at length 100, outlier at 200: medoid is in the cluster
        for doc in docs_around(100, [0, 1, 2, 3, 100]):
            policy.observe(doc)
        assert len(policy.current()) in (101, 102)  # central cluster member

    def test_evicts_worst(self):
        policy = self._policy(p=1.0, k=3)
        for doc in docs_around(100, [0, 1, 2]):
            policy.observe(doc)
        policy.observe(bytes([65]) * 500)  # clearly the worst candidate
        lengths = sorted(len(d) for d in policy.stored_documents)
        assert 500 not in lengths

    def test_flush_empties_store(self):
        policy = self._policy(p=1.0)
        policy.observe(b"doc")
        policy.flush()
        assert policy.current() is None

    def test_owner_tracked(self):
        policy = self._policy(p=1.0, k=4)
        policy.observe(bytes([65]) * 10, "alice")
        assert policy.current_owner() == "alice"

    def test_utility_of(self):
        policy = self._policy(p=1.0, k=4)
        for doc in docs_around(100, [0, 2, 4]):
            policy.observe(doc)
        near = policy.utility_of(bytes([65]) * 102)
        far = policy.utility_of(bytes([65]) * 300)
        assert near < far

    def test_utility_of_empty_store(self):
        assert self._policy().utility_of(b"x") is None

    def test_periodic_random_eviction_never_evicts_best(self):
        config = BaseFileConfig(
            sample_probability=1.0,
            capacity=3,
            eviction=EvictionVariant.PERIODIC_RANDOM,
            random_evict_period=1,  # every eviction is random
        )
        policy = RandomizedPolicy(config, toy_delta, random.Random(7))
        for doc in docs_around(100, [0, 1, 2, 3, 4, 5, 6]):
            policy.observe(doc)
            current = policy.current()
            assert current in policy.stored_documents

    def test_two_set_variant(self):
        policy = self._policy(p=1.0, k=3, eviction=EvictionVariant.TWO_SET)
        for doc in docs_around(100, [0, 1, 2, 3, 4, 50]):
            policy.observe(doc)
        assert len(policy.stored_documents) == 3
        assert policy.current() is not None
        # the reference set is bounded too
        assert len(policy._references) == 3

    def test_two_set_quality(self):
        policy = self._policy(p=1.0, k=4, eviction=EvictionVariant.TWO_SET)
        for doc in docs_around(100, [0, 1, 2, 3, 60, 61]):
            policy.observe(doc)
        # best should come from the dense cluster, not the 160s
        assert len(policy.current()) <= 104

    def test_two_set_ranks_identical_candidates_equally(self):
        """A candidate is never measured against its own reference copy, so
        one whose copy was evicted is measured against one reference more.
        Utility is a mean, so that extra term does not count against it."""

        def with_header(base: bytes, target: bytes) -> int:
            return 10 + toy_delta(base, target)  # every delta pays a header

        config = BaseFileConfig(
            sample_probability=1.0, capacity=3, eviction=EvictionVariant.TWO_SET
        )
        policy = RandomizedPolicy(config, with_header, random.Random(1))
        for _ in range(4):  # the fourth admission evicts one reference
            policy.observe(bytes([65]) * 100)
        assert sorted(len(c.deltas) for c in policy._candidates) == [2, 2, 3]
        assert [c.utility() for c in policy._candidates] == [10.0, 10.0, 10.0]


class TestMeasuredSizes:
    """Every size goes through one per-policy table keyed by content."""

    @staticmethod
    def _counting(calls: list):
        def delta_size(base: bytes, target: bytes) -> int:
            calls.append((base, target))
            return toy_delta(base, target)

        return delta_size

    @pytest.mark.parametrize("eviction", list(EvictionVariant), ids=lambda v: v.value)
    def test_readmitting_identical_documents_measures_nothing(self, eviction):
        calls: list = []
        config = BaseFileConfig(
            sample_probability=1.0, capacity=4, eviction=eviction,
            random_evict_period=2,
        )
        policy = RandomizedPolicy(config, self._counting(calls), random.Random(3))
        a, b = bytes([65]) * 100, bytes([66]) * 120
        for doc in (a, a, b, b):  # fills the store, measuring all four pairs
            policy.observe(doc)
        assert len(policy.stored_documents) == 4
        assert sorted(calls) == sorted([(a, a), (a, b), (b, a), (b, b)])
        measured = len(calls)
        for doc in (a, b, b, a, a, b, a, b):  # each one evicts a resident
            policy.observe(doc)
        assert policy.utility_of(a) is not None
        assert len(calls) == measured

    def test_rebase_probe_of_a_resident_reuses_its_sizes(self):
        calls: list = []
        config = BaseFileConfig(sample_probability=1.0, capacity=4)
        policy = RandomizedPolicy(config, self._counting(calls), random.Random(1))
        for doc in docs_around(100, [0, 2, 4]):
            policy.observe(doc)
        measured = len(calls)
        # the challenger of a rebase check is the policy's own favourite
        assert policy.utility_of(policy.current()) == 2.0
        assert len(calls) == measured

    def test_table_is_bounded_by_four_k_squared(self):
        calls: list = []
        config = BaseFileConfig(sample_probability=1.0, capacity=2)
        policy = RandomizedPolicy(config, self._counting(calls), random.Random(1))
        for length in range(10, 60):
            policy.observe(bytes([65]) * length)
            assert len(policy._sizes) <= 4 * 2**2
        assert len(policy._sizes) == 16


class TestOnlineOptimal:
    def test_tracks_running_medoid(self):
        policy = OnlineOptimalPolicy(toy_delta)
        for doc in docs_around(100, [0, 10, 20]):
            policy.observe(doc)
        # doc at 110 minimizes sum (10 + 10 = 20)
        assert len(policy.current()) == 110

    def test_max_documents_cap(self):
        policy = OnlineOptimalPolicy(toy_delta, max_documents=2)
        for doc in docs_around(100, [0, 1, 2, 3]):
            policy.observe(doc)
        assert len(policy._docs) == 2

    def test_owner_of_best(self):
        policy = OnlineOptimalPolicy(toy_delta)
        policy.observe(bytes([65]) * 100, "a")
        policy.observe(bytes([65]) * 110, "b")
        policy.observe(bytes([65]) * 120, "c")
        assert policy.current_owner() == "b"

    def test_flush(self):
        policy = OnlineOptimalPolicy(toy_delta)
        policy.observe(b"doc")
        policy.flush()
        assert policy.current() is None


class TestOfflineBest:
    def test_finds_medoid(self):
        docs = docs_around(100, [0, 10, 20, 100])
        index, best = offline_best(docs, toy_delta)
        assert index == 1  # 110 minimizes total distance
        assert best == docs[1]

    def test_single_document(self):
        assert offline_best([b"only"], toy_delta) == (0, b"only")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            offline_best([], toy_delta)

    def test_never_worse_than_any_online_policy(self):
        rng = random.Random(3)
        docs = [bytes([65]) * rng.randint(50, 150) for _ in range(12)]

        def total(base):
            return sum(toy_delta(base, d) for d in docs if d != base)

        _, best = offline_best(docs, toy_delta)
        policy = OnlineOptimalPolicy(toy_delta)
        for doc in docs:
            policy.observe(doc)
        assert total(best) <= total(policy.current())


class TestFactory:
    def test_known_policies(self):
        config = BaseFileConfig()
        rng = random.Random(0)
        for name in ("first-response", "randomized", "online-optimal"):
            policy = make_policy(name, config, toy_delta, rng)
            assert policy.name == name

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("nonsense", BaseFileConfig(), toy_delta, random.Random(0))
