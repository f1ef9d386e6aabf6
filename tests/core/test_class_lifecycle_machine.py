"""Generated lifecycles of one DocumentClass against its base-file invariants.

A class holds at most three base-files (raw, current, previous) and derives
indexes, checksums and storage accounting from them.  This machine drives
one class through random sequences of adoption, anonymization feeding,
ingesting origin documents (which runs the class's own rebase policy),
previous-generation drops, storage releases, quarantines and warm-restart
restores, and after every step checks that what the class derives still
describes the bytes it holds.
"""

import random

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.base_file import RandomizedPolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig, BaseFileConfig
from repro.core.rebase import RebaseController
from repro.core.storage import class_storage_bytes
from repro.delta.codec import checksum
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder

SKELETON = b"".join(b"<div class=row-%d>catalog body</div>" % i for i in range(40))


def page(variant: int) -> bytes:
    """Documents of one family: a shared skeleton plus a small unique part."""
    tail = b"<p>variant %d private %d</p>" % (variant, variant * 7919)
    return SKELETON[: 800 + 40 * (variant % 5)] + tail * 3 + SKELETON[800:]


DOCUMENT = st.integers(0, 7).map(page)
USER = st.sampled_from(["u1", "u2", "u3", "u4", None])
#: every ingested document is sampled; a group-rebase needs only a timeout
#: and a strictly better candidate
REBASE = BaseFileConfig(
    sample_probability=1.0, capacity=4, rebase_timeout=10.0, improvement_factor=1.0
)


class ClassLifecycle(RuleBasedStateMachine):
    @initialize(anonymize=st.booleans())
    def build(self, anonymize):
        self.estimator = LightEstimator()
        self.encoder = VdeltaEncoder()
        self.cls = DocumentClass(
            class_id="c1",
            server="www.m.example",
            hint="catalog",
            anonymization=AnonymizationConfig(
                enabled=anonymize, documents=2, min_count=1
            ),
            policy=RandomizedPolicy(REBASE, self.estimator.estimate, random.Random(5)),
            encoder=self.encoder,
            rebase=RebaseController(REBASE),
        )
        self.outcomes: list[str | None] = []
        self.now = 0.0
        self.last_version = 0
        self.fresh_users = (f"fresh{i}" for i in range(10_000))

    @rule(document=DOCUMENT, owner=USER)
    def adopt(self, document, owner):
        self.now += 1.0
        self.cls.adopt_base(document, owner_user=owner, now=self.now)

    @rule(document=DOCUMENT, user=USER)
    def feed(self, document, user):
        self.cls.feed(document, user)

    @precondition(lambda self: self.cls.anonymization_pending)
    @rule(document=DOCUMENT)
    def feed_to_promotion(self, document):
        while self.cls.anonymization_pending:
            self.cls.feed(document, next(self.fresh_users))

    @rule(
        document=DOCUMENT,
        user=USER,
        elapsed=st.sampled_from([0.0, 1.0, REBASE.rebase_timeout]),
        drift=st.booleans(),
    )
    def ingest(self, document, user, elapsed, drift):
        cls = self.cls
        self.now += elapsed
        if drift and cls.current is not None:
            # The engine's delta feedback: a delta as large as the document
            # pushes the smoothed ratio past the basic-rebase trigger.
            cls.rebase.note_delta(len(document), len(document))
        outcome = cls.ingest(document, user, self.now)
        self.outcomes.append(outcome)
        assert outcome in (None, "recovered", "basic", "group")
        assert cls.raw is not None
        if outcome in ("basic", "group"):
            assert cls.rebase.smoothed_ratio is None
            assert cls.last_rebase_at == self.now

    @rule()
    def drop_previous(self):
        before = class_storage_bytes(self.cls)
        freed = self.cls.drop_previous()
        assert class_storage_bytes(self.cls) == before - freed
        assert self.cls.previous is None

    @rule()
    def release_base(self):
        before = class_storage_bytes(self.cls)
        assert self.cls.release_base() == before
        assert class_storage_bytes(self.cls) == 0

    @rule()
    def quarantine(self):
        before = class_storage_bytes(self.cls)
        assert self.cls.quarantine() == before
        assert class_storage_bytes(self.cls) == 0
        assert not self.cls.can_serve_deltas

    @rule(document=DOCUMENT, version=st.integers(1, 50))
    def restore_base(self, document, version):
        self.cls.restore_base(document, version, checksum(document))
        self.last_version = version

    @invariant()
    def version_never_decreases(self):
        assert self.cls.version >= self.last_version
        self.last_version = self.cls.version

    @invariant()
    def previous_is_held_only_beside_current(self):
        assert self.cls.previous is None or self.cls.current is not None

    @invariant()
    def servable_versions_index_their_own_bytes(self):
        cls = self.cls
        servable = [cls.previous]
        if cls.can_serve_deltas:
            servable.append(cls.servable(cls.version))
        for base in servable:
            if base is None:
                continue
            assert cls.servable(base.version) is base
            assert base.full_index(self.encoder).base == base.body
            assert base.intact()

    @invariant()
    def light_index_covers_the_match_base(self):
        cls = self.cls
        expected = cls.current if cls.can_serve_deltas else cls.raw
        base = cls.match_base
        assert base is expected
        index = base.light_index(self.estimator) if base is not None else None
        if expected is None:
            assert index is None
        else:
            assert index.base == expected.body


ClassLifecycle.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestClassLifecycle = ClassLifecycle.TestCase


def test_ingest_reaches_a_basic_and_a_group_rebase():
    """The machine's ``ingest`` rule reaches both rebase kinds: the drift
    trigger, and the timeout with a better sampled candidate."""
    machine = ClassLifecycle()
    machine.build(anonymize=False)
    machine.ingest(page(0), "u1", 0.0, drift=False)  # adopts
    machine.ingest(page(1), "u2", 1.0, drift=True)
    assert machine.outcomes == [None, "basic"]
    # The basic rebase adopted page(1) and flushed the samples; page(2),
    # sampled on every ingest, is then the candidate closest to the rest.
    for _ in range(3):
        machine.ingest(page(2), "u3", 1.0, drift=False)
    machine.ingest(page(2), "u3", REBASE.rebase_timeout, drift=False)
    assert machine.outcomes[-1] == "group"
    machine.version_never_decreases()
    machine.previous_is_held_only_beside_current()
    machine.servable_versions_index_their_own_bytes()
    machine.light_index_covers_the_match_base()
    machine.teardown()
