"""The per-record encode cache: a collision-safe key and a byte bound.

:class:`~repro.core.classes.EncodeCache` memoizes finished deltas against
one base-file.  Its key must pin the document's bytes, not a checksum of
them: two users' personalized pages can share an Adler-32, and the client's
own Adler-32 check would then accept the other user's page.  Its payloads
never sum past the bound its record gives it, the record's body length.
"""

import zlib

from repro.core.classes import Base, EncodeCache
from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.apply import apply_delta
from repro.delta.compress import decompress
from repro.http.messages import HEADER_ACCEPT_DELTA, Request, Response, base_ref

SERVER = "www.leak.example"
URL = f"{SERVER}/account"
COMMON = b"".join(
    b"<li>item %05d: %s</li>" % (i, zlib.crc32(b"%d" % i).to_bytes(4, "big").hex().encode())
    for i in range(800)
)[:20_000]
TAIL = b"</p></body></html>"


def page(uid: str) -> bytes:
    return COMMON + f"<p>acct-{uid}".encode() + TAIL


def req(user: str, accept: str | None = None) -> Request:
    request = Request(url=URL, cookies={"uid": user}, client_id=user)
    if accept:
        request.headers.set(HEADER_ACCEPT_DELTA, accept)
    return request


class TestAdlerCollisionLeak:
    def test_colliding_pages_are_a_real_adler32_collision(self):
        # +1 / -2 / +1 at the same offset leaves both Adler sums unchanged.
        assert page("020") != page("101")
        assert zlib.adler32(page("020")) == zlib.adler32(page("101"))

    def test_a_user_never_reconstructs_another_users_page(self):
        async def fetch(request: Request, now: float) -> Response:
            return Response(status=200, body=page(request.cookies["uid"]))

        engine = DeltaServer(
            fetch, DeltaServerConfig(anonymization=AnonymizationConfig(enabled=False))
        )
        for user in ("w1", "w2", "w3"):
            engine.handle(req(user), now=0.0)
        cls = engine.class_of(URL)
        assert cls is not None and cls.can_serve_deltas
        ref = base_ref(cls.class_id, cls.version)
        base_url = DeltaServer.base_file_url(SERVER, cls.class_id, cls.version)
        base = engine.handle(Request(url=base_url), now=1.0).body
        for user in ("020", "101"):
            response = engine.handle(req(user, accept=ref), now=2.0)
            assert response.is_delta, user
            assert apply_delta(decompress(response.body), base) == page(user), user


def filled(limit: int, sizes: list[int]) -> EncodeCache:
    cache = EncodeCache(limit)
    for i, size in enumerate(sizes):
        cache.put(bytes([i]), size + 10, b"x" * size)
    return cache


class TestByteBound:
    def test_a_record_bounds_its_cache_by_its_body(self):
        record = Base(b"b" * 1000)
        assert record.deltas.limit == 1000
        for i in range(50):
            record.deltas.put(bytes([i]), 400, b"p" * (90 + i))
            assert record.deltas.held <= len(record.body)
        # The newest seven fit (952 B); an eighth (132 B) would not.
        assert record.deltas.held == sum(90 + i for i in range(43, 50)) == 952
        assert len(record.deltas) == 7

    def test_a_payload_larger_than_the_bound_is_not_cached(self):
        cache = filled(100, [30, 30])
        cache.put(b"big", 500, b"y" * 101)
        assert cache.get(b"big") is None
        assert cache.held == 60 and len(cache) == 2
        cache.put(b"edge", 500, b"z" * 100)  # exactly the bound fits, alone
        assert cache.get(b"edge") == (500, b"z" * 100)
        assert cache.held == 100 and len(cache) == 1

    def test_reputting_a_key_replaces_its_bytes(self):
        cache = filled(100, [30, 30])
        cache.put(bytes([0]), 99, b"n" * 20)
        assert cache.held == 50 and len(cache) == 2
        assert cache.get(bytes([0])) == (99, b"n" * 20)
        # A re-put too large for the bound drops the old entry too.
        cache.put(bytes([1]), 99, b"n" * 101)
        assert cache.get(bytes([1])) is None and cache.held == 20

    def test_eviction_is_least_recently_used(self):
        cache = filled(90, [30, 30, 30])
        assert cache.get(bytes([0])) is not None  # 1 is now the oldest
        cache.put(b"new", 40, b"w" * 30)
        assert cache.get(bytes([1])) is None
        assert [cache.get(bytes([k])) is not None for k in (0, 2)] == [True, True]
        assert cache.get(b"new") is not None and cache.held == 90
        cache.put(b"wide", 70, b"w" * 60)  # evicts the two oldest: 0, then 2
        assert cache.get(bytes([0])) is None and cache.get(bytes([2])) is None
        assert cache.held == 90 and len(cache) == 2

    def test_clear_resets_the_held_bytes(self):
        cache = filled(100, [10, 20, 30])
        assert cache.held == 60
        cache.clear()
        assert cache.held == 0 and len(cache) == 0
        cache.put(b"k", 1, b"v" * 100)
        assert cache.held == 100
