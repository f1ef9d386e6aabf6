"""Property-based tests on core invariants (hypothesis)."""

import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anonymize import AnonymizationState, Anonymizer
from repro.core.base_file import RandomizedPolicy, offline_best
from repro.core.config import AnonymizationConfig, BaseFileConfig, EvictionVariant
from repro.delta import apply_delta, delta_size, make_delta


# -- anonymizer ---------------------------------------------------------------

docs = st.lists(
    st.binary(min_size=30, max_size=300), min_size=1, max_size=6
)


@settings(max_examples=40, deadline=None)
@given(base=st.binary(min_size=10, max_size=400), others=docs)
def test_anonymized_base_is_subsequence(base, others):
    """Anonymization only DELETES bytes — the anonymized base is always a
    subsequence of the original, never new content."""
    config = AnonymizationConfig(enabled=True, documents=len(others), min_count=1)
    anonymizer = Anonymizer(base, config)
    for i, doc in enumerate(others):
        anonymizer.observe(doc, f"u{i}")
    assert anonymizer.state is AnonymizationState.READY
    anonymized = anonymizer.anonymized
    # subsequence check
    it = iter(base)
    assert all(byte in it for byte in anonymized)


@settings(max_examples=40, deadline=None)
@given(base=st.binary(min_size=10, max_size=400), others=docs)
def test_higher_min_count_never_keeps_more(base, others):
    """Raising M is monotone: stricter thresholds keep fewer bytes."""
    n = len(others)
    sizes = []
    for m in range(1, n + 1):
        config = AnonymizationConfig(enabled=True, documents=n, min_count=m)
        anonymizer = Anonymizer(base, config)
        for i, doc in enumerate(others):
            anonymizer.observe(doc, f"u{i}")
        sizes.append(len(anonymizer.anonymized))
    assert sizes == sorted(sizes, reverse=True)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(50, 300),
    n=st.integers(1, 4),
)
def test_identical_documents_keep_everything(seed, length, n):
    """If every comparison document IS the base, nothing is dropped.

    Holds for high-entropy bases, where the differ's greedy matcher finds
    the identity copy.  (Highly self-repetitive bases legitimately get
    fragmented coverage — the matcher may satisfy itself from a different
    offset — which only ever makes anonymization MORE aggressive, i.e.
    conservative for privacy.)
    """
    base = random.Random(seed).randbytes(length)
    config = AnonymizationConfig(enabled=True, documents=n, min_count=n)
    anonymizer = Anonymizer(base, config)
    for i in range(n):
        anonymizer.observe(base, f"u{i}")
    assert anonymizer.anonymized == base


@settings(max_examples=40, deadline=None)
@given(base=st.binary(min_size=10, max_size=200), others=docs)
def test_chunk_counts_bounded(base, others):
    config = AnonymizationConfig(enabled=True, documents=len(others), min_count=1)
    anonymizer = Anonymizer(base, config)
    for i, doc in enumerate(others):
        anonymizer.observe(doc, f"u{i}")
    counts = anonymizer.chunk_counts()
    assert len(counts) == len(base)
    assert all(0 <= c <= len(others) for c in counts)


# -- delta substrate ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    base=st.binary(min_size=0, max_size=500),
    target=st.binary(min_size=0, max_size=500),
)
def test_wire_roundtrip_property(base, target):
    """Serialize -> apply reproduces the target for arbitrary inputs."""
    assert apply_delta(make_delta(base, target), base) == target


@settings(max_examples=40, deadline=None)
@given(doc=st.binary(min_size=1, max_size=500))
def test_self_delta_is_tiny(doc):
    """delta(x, x) is bounded by a small constant (header + one copy)."""
    assert delta_size(doc, doc) <= 32


# -- base-file policies ---------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(10, 200), min_size=3, max_size=15),
    seed=st.integers(0, 999),
)
def test_randomized_policy_invariants(lengths, seed):
    """Store never exceeds K; current() is always a stored document."""

    def toy(a: bytes, b: bytes) -> int:
        return abs(len(a) - len(b))

    config = BaseFileConfig(sample_probability=1.0, capacity=4)
    policy = RandomizedPolicy(config, toy, random.Random(seed))
    for length in lengths:
        policy.observe(bytes(length))
        assert len(policy.stored_documents) <= 4
        current = policy.current()
        assert current in policy.stored_documents


#: a small alphabet, so admission sequences repeat content pairs (two
#: lengths twice over, so a size cannot be told apart by length alone)
ALPHABET = [b"A" * 40, b"B" * 40, b"A" * 54, b"AB" * 27, b"B" * 68]


def header_toy(a: bytes, b: bytes) -> int:
    """A pure, asymmetric stand-in for ``delta_size(base, target)``: a header,
    the bytes the target adds, and the positions that differ."""
    return 8 + max(len(b) - len(a), 0) + sum(x != y for x, y in zip(a, b))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    picks=st.lists(st.integers(0, len(ALPHABET) - 1), min_size=1, max_size=30),
    capacity=st.integers(2, 4),
    eviction=st.sampled_from(list(EvictionVariant)),
    seed=st.integers(0, 99),
)
def test_stored_utility_equals_remeasured(picks, capacity, eviction, seed):
    """Remembered sizes are the sizes: every stored delta and every
    ``utility_of`` equals a fresh measurement, the size table stays within
    ``4·K²``, and until it first fills no content pair is measured twice."""
    calls: Counter = Counter()

    def counting(a: bytes, b: bytes) -> int:
        calls[a, b] += 1
        return header_toy(a, b)

    config = BaseFileConfig(
        sample_probability=1.0, capacity=capacity, eviction=eviction,
        random_evict_period=2,
    )
    policy = RandomizedPolicy(config, counting, random.Random(seed))
    cap = 4 * capacity**2
    for pick in picks:
        policy.observe(ALPHABET[pick])
        measured = policy._measurement_set()
        by_id = {o.id: o for o in measured}
        for c in policy._candidates:
            assert set(c.deltas) <= set(by_id)
            for other_id, size in c.deltas.items():
                assert size == header_toy(c.doc, by_id[other_id].doc)
        for doc in ALPHABET:
            others = [o.doc for o in measured]
            if doc in others:
                others.remove(doc)  # one copy of itself is skipped
            expected = (
                sum(header_toy(doc, o) for o in others) / len(others)
                if others else None
            )
            assert policy.utility_of(doc) == expected
        assert len(policy._sizes) <= cap
        if len(policy._sizes) < cap:  # nothing was ever evicted from it
            assert max(calls.values(), default=0) <= 1


@settings(max_examples=25, deadline=None)
@given(lengths=st.lists(st.integers(10, 100), min_size=1, max_size=10))
def test_offline_best_is_minimal(lengths):
    """offline_best really minimizes the total toy-delta."""

    def toy(a: bytes, b: bytes) -> int:
        return abs(len(a) - len(b))

    documents = [bytes(length) for length in lengths]
    _, best = offline_best(documents, toy)

    def total(base: bytes) -> int:
        return sum(toy(base, d) for d in documents if d is not base)

    assert total(best) == min(total(d) for d in documents)
