"""Golden engine transcript: the wire the engine writes, pinned response by response.

Replays the end-to-end benchmark's site and trace shape (``www.shop.example``,
5 products per category, anonymization N=3/M=1, 24 users, revisit bias 0.6)
through :meth:`DeltaServer.handle` on one thread and a simulated clock,
once with steady content and once with a new content epoch per request.
A client model holds base-files per population, asks for deltas against the
ref it holds and fetches every advertised base it lacks — so the transcript
covers adoption, anonymization, promotion, rebases, previous-generation
deltas and base-file distribution.

Every response is pinned as ``[kind, status, X-Delta, X-Delta-Base, length,
adler32]`` in ``engine_transcript.json``, and every reconstructed document is
checked against an independent origin render.  A change that means to alter
the wire regenerates the file and commits the diff as its claim::

    REPRO_UPDATE_TRANSCRIPT=1 PYTHONPATH=src python -m pytest \\
        tests/integration/test_engine_transcript.py
"""

import json
import os
import zlib
from pathlib import Path

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta import apply_delta, decompress
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_DELTA,
    HEADER_DELTA_BASE,
    Request,
    Response,
    parse_base_ref,
)
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.parts import split_server
from repro.url.rules import RuleBook
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.trace import TraceRecord

GOLDEN = Path(__file__).with_name("engine_transcript.json")
UPDATE = os.environ.get("REPRO_UPDATE_TRANSCRIPT") == "1"

EPOCHS = {"steady": 1e9, "churn": 0.001}
WARM_USERS = ("warm-a", "warm-b", "warm-c")
TRACE_REQUESTS = 240  # + 60 sweep records = 300 per epoch
#: simulated seconds between requests: 300 of them span five default rebase
#: timeouts, so group-rebases and previous-generation deltas show up
TICK = 30.0


def replay(epoch_seconds: float) -> list[list]:
    site = SyntheticSite(
        SiteSpec(
            name="www.shop.example",
            products_per_category=5,
            epoch_seconds=epoch_seconds,
        )
    )
    origin = OriginServer([site])
    twin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(site.spec.name, site.hint_rule_pattern())
    engine = DeltaServer(
        origin.fetch,
        DeltaServerConfig(
            anonymization=AnonymizationConfig(enabled=True, documents=3, min_count=1)
        ),
        rulebook,
    )
    sweep = [
        TraceRecord(0.0, user, site.url_for(page))
        for page in site.all_pages()
        for user in WARM_USERS
    ]
    trace = generate_workload(
        [site],
        WorkloadSpec(
            name="transcript", requests=TRACE_REQUESTS, users=24,
            revisit_bias=0.6, seed=100,
        ),
    ).trace.records

    base_cache: dict[str, bytes] = {}
    held: dict[tuple[str, str], str] = {}
    transcript: list[list] = []

    def record(kind: str, response: Response) -> None:
        transcript.append([
            kind,
            response.status,
            response.headers.get(HEADER_DELTA),
            response.headers.get(HEADER_DELTA_BASE),
            len(response.body),
            zlib.adler32(response.body),
        ])

    for i, rec in enumerate(sweep + trace):
        now = i * TICK
        request = Request(url=rec.url, cookies={"uid": rec.user}, client_id=rec.user)
        ref = held.get((rec.user, rec.url))
        if ref is not None:
            request.headers.set(HEADER_ACCEPT_DELTA, ref)
        response = engine.handle(request, now)
        record("doc", response)
        assert response.status == 200
        if response.is_delta:
            document = apply_delta(
                decompress(response.body), base_cache[response.delta_base_ref]
            )
        else:
            document = response.body
        expected = twin.handle(
            Request(url=rec.url, cookies={"uid": rec.user}, client_id=rec.user), now
        ).body
        assert document == expected, f"record {i} reconstructed wrong"
        advertised = response.base_file_ref
        if advertised is None:
            continue
        held[(rec.user, rec.url)] = advertised
        if advertised not in base_cache:
            class_id, version = parse_base_ref(advertised)
            url = DeltaServer.base_file_url(split_server(rec.url)[0], class_id, version)
            base = engine.handle(Request(url=url, client_id=rec.user), now)
            record("base", base)
            assert base.status == 200
            base_cache[advertised] = base.body
    return transcript


def test_engine_transcript_matches_golden():
    transcripts = {name: replay(epoch) for name, epoch in EPOCHS.items()}
    if UPDATE:
        lines = [
            f'  "{name}": [\n'
            + ",\n".join(f"    {json.dumps(entry)}" for entry in entries)
            + "\n  ]"
            for name, entries in transcripts.items()
        ]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        pytest.skip("transcript rewritten")
    golden = json.loads(GOLDEN.read_text())
    for name, entries in transcripts.items():
        pinned = golden[name]
        for i, (got, want) in enumerate(zip(entries, pinned)):
            assert got == want, f"{name} response {i}: {got} != {want}"
        assert len(entries) == len(pinned), name


def test_transcript_exercises_the_lifecycle():
    """The pinned wire covers fulls, base-files, rebases and deltas against
    both the current and the previous generation."""
    golden = json.loads(GOLDEN.read_text())
    for name in EPOCHS:
        entries = golden[name]
        assert any(kind == "base" for kind, *_ in entries), name
        assert any(delta is None for _, _, delta, *_ in entries), name
        versions = {int(ref.rsplit("/", 1)[1]) for _, _, _, ref, *_ in entries if ref}
        assert max(versions) >= 2, f"{name}: no class was ever rebased"
        # X-Delta names the base used, X-Delta-Base the newer one to fetch.
        assert any(delta and ref for _, _, delta, ref, *_ in entries), name
