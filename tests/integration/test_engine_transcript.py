"""Golden engine transcript: the wire the engine writes, pinned response by response.

Replays the end-to-end benchmark's site and trace shape (``www.shop.example``,
5 products per category, anonymization N=3/M=1, 24 users, revisit bias 0.6)
through :class:`~repro.simulation.Simulation` on one thread and a simulated
clock, once with steady content and once with a new content epoch per
request.  Per-user browsers behind one proxy-cache ask for deltas against the
ref they hold and fetch every advertised base they lack, so the transcript
covers adoption, anonymization, promotion, rebases, previous-generation
deltas and base-file distribution.

Every response the engine writes (the simulation's observer, on the engine
side of the proxy) is pinned as ``[kind, status, X-Delta, X-Delta-Base,
length, adler32]`` in ``engine_transcript.json``, and the simulation checks
every reconstructed document against an independent origin render.  A change
that means to alter the wire regenerates the file and commits the diff as its
claim::

    REPRO_UPDATE_TRANSCRIPT=1 PYTHONPATH=src python -m pytest \\
        tests/integration/test_engine_transcript.py

The same replays also count the engine's light scans
(``LightEstimator.estimate_with_index``, grouping probes plus base-file
admission and rebase checks).  The counts are exact on one thread, and
``LIGHT_SCANS`` pins them as a ceiling: a change that measures more must say
so by raising it.  A third replay, the end-to-end benchmark's steady trace
(seed 7, 600 records) cycled three times at live request spacing, counts the
full kernel encodes (``VdeltaEncoder.encode_stream_with_index``) each pass
runs; ``STEADY_ENCODES`` pins those the same way.
"""

import json
import os
import zlib
from pathlib import Path

import pytest

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import DeltaServer
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder
from repro.http.messages import HEADER_DELTA, HEADER_DELTA_BASE, Request, Response
from repro.origin.site import SiteSpec, SyntheticSite
from repro.simulation import Simulation, SimulationConfig
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.trace import Trace, TraceRecord

GOLDEN = Path(__file__).with_name("engine_transcript.json")
UPDATE = os.environ.get("REPRO_UPDATE_TRANSCRIPT") == "1"

EPOCHS = {"steady": 1e9, "churn": 0.001}
WARM_USERS = ("warm-a", "warm-b", "warm-c")
TRACE_REQUESTS = 240  # + 60 sweep records = 300 per epoch
#: simulated seconds between requests: 300 of them span five default rebase
#: timeouts, so group-rebases and previous-generation deltas show up
TICK = 30.0
#: light scans per epoch's replay, at most
LIGHT_SCANS = {"steady": 221, "churn": 350}
#: full kernel encodes in each pass of the steady e2e trace (the first pass
#: includes the warm sweep), at most.  The trace holds 162 distinct (user,
#: URL) documents and the 127 + 35 below are each of them once: by the third
#: pass every delta comes from its base record's encode cache.
STEADY_ENCODES = [127, 35, 0]
#: records in the e2e benchmark's generated trace
STEADY_REQUESTS = 600
#: simulated seconds between the steady trace's requests: live spacing, so
#: no rebase timeout falls inside the replay
STEADY_TICK = 0.005


def make_site(epoch_seconds: float) -> SyntheticSite:
    return SyntheticSite(
        SiteSpec(
            name="www.shop.example",
            products_per_category=5,
            epoch_seconds=epoch_seconds,
        )
    )


def visits_of(site: SyntheticSite, requests: int, seed: int) -> list[tuple[str, str]]:
    """The warm sweep (every page x ``WARM_USERS``), then a generated trace."""
    sweep = [
        (user, site.url_for(page)) for page in site.all_pages() for user in WARM_USERS
    ]
    trace = generate_workload(
        [site],
        WorkloadSpec(
            name="transcript", requests=requests, users=24,
            revisit_bias=0.6, seed=seed,
        ),
    ).trace.records
    return sweep + [(rec.user, rec.url) for rec in trace]


def simulate(site, visits, tick: float, observe) -> None:
    """Replay ``visits`` ``tick`` simulated seconds apart, verifying every
    reconstructed document."""
    simulation = Simulation(
        [site],
        SimulationConfig(
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(enabled=True, documents=3, min_count=1)
            )
        ),
        observer=observe,
    )
    report = simulation.run(
        Trace(
            "transcript",
            [TraceRecord(i * tick, user, url) for i, (user, url) in enumerate(visits)],
        )
    )
    assert report.verify_failures == 0


def replay(epoch_seconds: float) -> list[list]:
    site = make_site(epoch_seconds)
    visits = visits_of(site, TRACE_REQUESTS, seed=100)
    transcript: list[list] = []

    def observe(request: Request, response: Response) -> None:
        is_base = DeltaServer.parse_base_file_url(request.url) is not None
        transcript.append([
            "base" if is_base else "doc",
            response.status,
            response.headers.get(HEADER_DELTA),
            response.headers.get(HEADER_DELTA_BASE),
            len(response.body),
            zlib.adler32(response.body),
        ])

    simulate(site, visits, TICK, observe)
    return transcript


@pytest.fixture(scope="module")
def replays() -> dict[str, tuple[list[list], int]]:
    """Each epoch's transcript and the light scans its replay ran."""
    scans = 0
    estimate = LightEstimator.estimate_with_index

    def counting(self, index, target):
        nonlocal scans
        scans += 1
        return estimate(self, index, target)

    results = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LightEstimator, "estimate_with_index", counting)
        for name, epoch in EPOCHS.items():
            scans = 0
            transcript = replay(epoch)
            results[name] = (transcript, scans)
    return results


def test_engine_transcript_matches_golden(replays):
    transcripts = {name: transcript for name, (transcript, _) in replays.items()}
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


def test_light_scans_stay_at_floor(replays):
    """Admission and rebase checks re-measure no (base, target) content pair
    they still remember, so the scans stay at the pinned counts."""
    for name, (_, scans) in replays.items():
        assert scans <= LIGHT_SCANS[name], f"{name}: {scans} light scans"


def test_steady_encodes_stay_at_floor(monkeypatch):
    """A steady document is encoded against its base once: its delta is
    served from the base record's encode cache afterwards, so the last pass
    over the trace runs no kernel encode at all."""
    site = make_site(EPOCHS["steady"])
    visits = visits_of(site, STEADY_REQUESTS, seed=7)
    sweep, trace = visits[:-STEADY_REQUESTS], visits[-STEADY_REQUESTS:]
    visits = sweep + trace * len(STEADY_ENCODES)
    ends = {len(sweep) + len(trace) * (i + 1) for i in range(len(STEADY_ENCODES))}
    encodes, documents, at_ends = 0, 0, []
    encode = VdeltaEncoder.encode_stream_with_index

    def counting(self, *args, **kwargs):
        nonlocal encodes
        encodes += 1
        return encode(self, *args, **kwargs)

    def observe(request: Request, response: Response) -> None:
        nonlocal documents
        if DeltaServer.parse_base_file_url(request.url) is None:
            documents += 1
            if documents in ends:
                at_ends.append(encodes)

    monkeypatch.setattr(VdeltaEncoder, "encode_stream_with_index", counting)
    simulate(site, visits, STEADY_TICK, observe)
    per_pass = [b - a for a, b in zip([0, *at_ends], at_ends)]
    assert len(per_pass) == len(STEADY_ENCODES)
    for i, (got, most) in enumerate(zip(per_pass, STEADY_ENCODES)):
        assert got <= most, f"pass {i + 1}: {got} full encodes (per pass: {per_pass})"


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
