"""Tests for DocumentClass base-file lifecycle and versioning."""

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder



def page(user: str) -> bytes:
    return (b"<body>" + b"<p>common block</p>" * 80
            + f"<div>private-{user}-token</div>".encode() + b"</body>")


def make_class(anon_documents=2, anon_enabled=True) -> DocumentClass:
    return DocumentClass(
        class_id="cls1",
        server="www.a.com",
        hint="laptops",
        anonymization=AnonymizationConfig(
            enabled=anon_enabled, documents=anon_documents, min_count=1
        ),
        policy=FirstResponsePolicy(),
        encoder=VdeltaEncoder(),
    )


class TestBaseLifecycle:
    def test_new_class_cannot_serve_deltas(self):
        cls = make_class()
        assert not cls.can_serve_deltas
        assert cls.version == 0

    def test_anonymization_disabled_promotes_immediately(self):
        cls = make_class(anon_enabled=False)
        cls.adopt_base(page("owner"), owner_user="owner", now=0.0)
        assert cls.can_serve_deltas
        assert cls.version == 1
        assert cls.current.body == page("owner")

    def test_promotion_after_n_users(self):
        cls = make_class(anon_documents=2)
        cls.adopt_base(page("owner"), owner_user="owner", now=0.0)
        assert cls.anonymization_pending
        cls.feed(page("u1"), "u1")
        assert not cls.can_serve_deltas
        cls.feed(page("u2"), "u2")
        assert cls.can_serve_deltas
        assert cls.version == 1
        assert b"private-owner-token" not in cls.current.body

    def test_rebase_keeps_previous_distributable(self):
        cls = make_class(anon_documents=2)
        cls.adopt_base(page("owner"), owner_user="owner", now=0.0)
        cls.feed(page("u1"), "u1")
        cls.feed(page("u2"), "u2")
        first_base = cls.current.body
        # Rebase: previous base keeps serving during re-anonymization.
        cls.adopt_base(page("newowner"), owner_user="newowner", now=10.0)
        assert cls.current.body == first_base
        assert cls.version == 1
        cls.feed(page("u3"), "u3")
        cls.feed(page("u4"), "u4")
        assert cls.version == 2
        assert cls.previous.version == 1
        assert cls.servable(1).body == first_base
        assert cls.servable(2) is cls.current
        assert cls.servable(99) is None

    def test_full_index_for_versions(self):
        cls = make_class(anon_documents=1)
        cls.adopt_base(page("owner"), owner_user="owner", now=0.0)
        cls.feed(page("u1"), "u1")
        encoder = VdeltaEncoder()
        assert cls.servable(1).full_index(encoder).base == cls.current.body
        assert cls.servable(5) is None
        cls.adopt_base(page("o2"), owner_user="o2", now=1.0)
        cls.feed(page("u2"), "u2")
        assert cls.servable(2).full_index(encoder).base == cls.current.body
        # previous generation
        assert cls.servable(1).full_index(encoder).base == cls.previous.body

    def test_full_index_requires_base(self):
        cls = make_class()
        assert cls.current is None and cls.servable(cls.version) is None

    def test_light_index_uses_raw_base_before_promotion(self):
        cls = make_class(anon_documents=2)
        assert cls.match_base is None
        cls.adopt_base(page("owner"), owner_user="owner", now=0.0)
        assert cls.match_base is cls.raw
        index = cls.match_base.light_index(LightEstimator())
        assert index.base == page("owner")


class TestMembership:
    def test_members_and_popularity(self):
        cls = make_class()
        cls.add_member("www.a.com/laptops?id=1")
        cls.add_member("www.a.com/laptops?id=2")
        assert len(cls.members) == 2
        cls.stats.hits += 3
        assert cls.popularity == 3

    def test_key(self):
        assert make_class().key == ("www.a.com", "laptops")
