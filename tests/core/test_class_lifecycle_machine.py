"""Generated lifecycles of one DocumentClass against its base-file invariants.

A class holds at most three base-files (raw, current, previous) and derives
indexes, checksums and storage accounting from them.  This machine drives
one class through random sequences of adoption, anonymization feeding,
previous-generation drops, storage releases, quarantines and warm-restart
restores, and after every step checks that what the class derives still
describes the bytes it holds.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig
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


class ClassLifecycle(RuleBasedStateMachine):
    @initialize(anonymize=st.booleans())
    def build(self, anonymize):
        self.cls = DocumentClass(
            class_id="c1",
            server="www.m.example",
            hint="catalog",
            anonymization=AnonymizationConfig(
                enabled=anonymize, documents=2, min_count=1
            ),
            policy=FirstResponsePolicy(),
            encoder=VdeltaEncoder(),
            estimator=LightEstimator(),
        )
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

    @rule()
    def drop_previous(self):
        before = class_storage_bytes(self.cls)
        freed = self.cls.drop_previous()
        assert class_storage_bytes(self.cls) == before - freed
        assert self.cls.previous_version is None

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
    def servable_versions_index_their_own_bytes(self):
        cls = self.cls
        servable = [cls.previous_version]
        if cls.can_serve_deltas:
            servable.append(cls.version)
        for version in servable:
            if version is None:
                continue
            body = cls.base_for_version(version)
            assert body is not None
            assert cls.full_index_for(version).base == body
            assert cls.integrity_ok(version)

    @invariant()
    def light_index_covers_the_match_base(self):
        cls = self.cls
        expected = cls.distributable_base if cls.can_serve_deltas else cls.raw_base
        index = cls.light_index()
        if expected is None:
            assert index is None
        else:
            assert index.base == expected


ClassLifecycle.TestCase.settings = settings(
    max_examples=40,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestClassLifecycle = ClassLifecycle.TestCase
