"""Property-based tests on grouping invariants (hypothesis).

Three invariants the sharded search must hold under arbitrary workloads:

* a storm of concurrent classifications for one (server, hint) key never
  forks a class — the shard lock's whole job;
* the url → class map and the per-class membership sets stay mutually
  consistent (every mapped URL is a member, every member is mapped, no
  URL belongs to two classes);
* the sketch and scan candidate policies agree on join-vs-create for
  clearly-similar and clearly-dissimilar documents — the LSH index is an
  accelerator, not a behaviour change.
"""

import random
import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig, GroupingConfig
from repro.core.grouping import Grouper
from repro.core.sketch import MinHashSketcher
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder
from repro.url.rules import RuleBook


def make_grouper(
    config: GroupingConfig | None = None,
    seed: int = 1,
    sketcher: MinHashSketcher | None = MinHashSketcher(),
) -> Grouper:
    estimator = LightEstimator()
    encoder = VdeltaEncoder()
    counter = iter(range(1, 100_000))

    def factory(server: str, hint: str) -> DocumentClass:
        return DocumentClass(
            class_id=f"c{next(counter)}",
            server=server,
            hint=hint,
            anonymization=AnonymizationConfig(enabled=False),
            policy=FirstResponsePolicy(),
            encoder=encoder,
            estimator=estimator,
        )

    return Grouper(
        config=config or GroupingConfig(),
        rulebook=RuleBook(),
        estimator=estimator,
        class_factory=factory,
        sketcher=sketcher,
        seed=seed,
    )


def family_doc(family: int, item: int) -> bytes:
    """High-entropy pages: one family shares a 3000-byte skeleton, each
    item adds a 200-byte unique tail.  Within a family the light-delta
    ratio is ~0.07 (clear match at the default 0.15 threshold) and the
    shingle Jaccard is ~0.88 (clear LSH recall); across families both are
    clear misses."""
    skeleton = random.Random(family * 10_007 + 13).randbytes(3000)
    tail = random.Random(family * 65_521 + item).randbytes(200)
    return skeleton + tail


def classify(grouper: Grouper, url: str, document: bytes):
    cls, created = grouper.classify(url, document)
    if created:
        with cls.lock:
            cls.adopt_base(document, owner_user=None, now=0.0)
    return cls, created


# -- no class forking under concurrency --------------------------------------


@settings(max_examples=10, deadline=None)
@given(threads=st.integers(2, 8), family=st.integers(0, 999))
def test_same_key_storm_never_forks_a_class(threads, family):
    """Concurrent similar-document requests for one (server, hint) key all
    land in the one existing class."""
    grouper = make_grouper()
    classify(grouper, "www.x.com/cat?id=0", family_doc(family, 0))
    barrier = threading.Barrier(threads)
    results: list = [None] * threads
    errors: list = []

    def worker(i: int) -> None:
        try:
            document = family_doc(family, i + 1)
            barrier.wait()
            results[i] = classify(grouper, f"www.x.com/cat?id={i + 1}", document)[0]
        except Exception as exc:  # pragma: no cover - surfaced via errors
            errors.append(exc)

    workers = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert not errors
    assert grouper.class_count() == 1
    assert len({cls.class_id for cls in results}) == 1


@settings(max_examples=10, deadline=None)
@given(threads=st.integers(2, 8), family=st.integers(0, 999))
def test_same_url_storm_counts_every_hit_once(threads, family):
    grouper = make_grouper()
    url = "www.x.com/cat?id=0"
    document = family_doc(family, 0)
    classify(grouper, url, document)
    barrier = threading.Barrier(threads)

    def worker() -> None:
        barrier.wait()
        grouper.classify(url, document)

    workers = [threading.Thread(target=worker) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert grouper.class_count() == 1
    cls = grouper.class_for_url(url)
    assert cls.members == {url}
    assert cls.stats.hits == threads + 1


# -- url→class map vs memberships ---------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 4), st.booleans()),
        max_size=30,
    )
)
def test_url_map_and_memberships_stay_consistent(ops):
    """After any mixed-family workload (including session-style URLs with
    unique hints), the url→class map and the membership sets agree."""
    grouper = make_grouper()
    for n, (family, item, sessiony) in enumerate(ops):
        if sessiony:
            url = f"www.x.com/sess-{n}/f{family}?item={item}"
        else:
            url = f"www.x.com/f{family}?item={item}"
        classify(grouper, url, family_doc(family, item))

    mapped = dict(grouper._url_to_class)
    classes = grouper.classes
    members_of = {cls.class_id: set(cls.members) for cls in classes}
    # Every mapped URL is a member of exactly the class it maps to.
    for url, class_id in mapped.items():
        assert url in members_of[class_id]
    # Every member everywhere is mapped back to its own class (which also
    # proves membership sets are disjoint).
    for class_id, members in members_of.items():
        for url in members:
            assert mapped[url] == class_id


# -- sketch vs scan parity ----------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    families=st.integers(1, 4),
    items=st.integers(1, 4),
    shuffle_seed=st.integers(0, 99),
)
def test_sketch_and_scan_policies_agree(families, items, shuffle_seed):
    """Session-style URLs (unique hint every time) force candidate
    selection on every request; both policies must make identical
    join-vs-create decisions on clearly-similar / clearly-dissimilar
    content."""
    sequence = [(f, i) for f in range(families) for i in range(items)]
    random.Random(shuffle_seed).shuffle(sequence)
    outcomes = {}
    for policy, sketcher in (("sketch", MinHashSketcher()), ("scan", None)):
        grouper = make_grouper(sketcher=sketcher)
        decisions = []
        for n, (family, item) in enumerate(sequence):
            url = f"www.x.com/sess-{n}/page?f={family}&i={item}"
            cls, created = classify(grouper, url, family_doc(family, item))
            decisions.append((created, cls.class_id))
        outcomes[policy] = (decisions, grouper.class_count())
    assert outcomes["sketch"] == outcomes["scan"]
    assert outcomes["sketch"][1] == families
