"""Grouping at scale: sketch/LSH candidate index vs the same-server scan.

Section III's search procedure considers *every* same-server class when a
URL's hint matches nothing — and even its popular-first ordering sorts
the whole class list per request.  On a session-heavy site (a constant
stream of fresh, hint-less URLs) that is the scaling wall: each unmatched
session URL both pays an O(classes) search *and* mints a new singleton
class, making the next search slower.

This benchmark replays an identical synthetic workload — ``--urls``
distinct URLs over two servers, each URL's document drawn from a family
that shares a page skeleton, a configurable fraction of URLs wearing
session-style (unique, useless) hints — through two groupers that differ
only in the ``sketcher`` they are built with:

* ``scan`` — ``sketcher=None``, the paper's literal procedure (the parity
  reference, built only here and in tests);
* ``sketch`` — the MinHash/LSH candidate index (:mod:`repro.core.sketch`)
  narrows the candidate set in O(1) before any light estimate runs.

Measured per arm: classify throughput (URLs/s), classes created, mean
probes per request, and total delta bytes saved — ``len(document) −
light-delta vs the final class base`` summed over *joined* URLs only (a
class's first request is served in full, so baseline churn singletons
earn nothing).  Gates on the full run: sketch throughput ≥ 10× scan, and
sketch savings ≥ 95% of scan savings (it typically saves far more — the
scan rarely finds the right class among thousands within its probe
budget).  ``--smoke`` (10k URLs) gates parity only.

Results land in ``benchmarks/results/BENCH_grouping.json``.  Run::

    python benchmarks/bench_grouping_scale.py --smoke
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_...py` directly
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.base_file import FirstResponsePolicy
from repro.core.classes import DocumentClass
from repro.core.config import AnonymizationConfig, GroupingConfig
from repro.core.grouping import Grouper
from repro.core.sketch import MinHashSketcher
from repro.delta.light import LightEstimator
from repro.delta.vdelta import VdeltaEncoder
from repro.url.rules import RuleBook

DEFAULT_URLS = 100_000
SMOKE_URLS = 10_000
SERVERS = 2
FAMILIES_PER_SERVER = 1_500
SMOKE_FAMILIES_PER_SERVER = 150
SESSION_FRACTION = 0.30  # URLs with a unique, hint-less-in-practice path
SKELETON_BYTES = 1_600
TAIL_BYTES = 200
THROUGHPUT_GATE = 10.0  # sketch classify throughput vs scan (full run)
PARITY_GATE = 0.95  # sketch delta-bytes-saved vs scan


def build_workload(
    urls: int, families_per_server: int, seed: int
) -> tuple[list[tuple[str, int, bool]], list[bytes], list[bytes]]:
    """Deterministic request stream over a two-server synthetic site.

    Returns ``(requests, skeletons, tails)`` where each request is
    ``(url, family_index, sessiony)``; the document for request ``n`` is
    ``skeletons[family_index] + tails[n]`` (assembled in the replay loop,
    identically for both arms).  Families are striped across the two
    servers; session URLs get a fresh first path segment, so the hint
    heuristic extracts a never-seen hint and candidate selection must
    work from content alone.
    """
    rng = random.Random(seed)
    total_families = SERVERS * families_per_server
    skeletons = [
        random.Random(seed * 1_000_003 + f).randbytes(SKELETON_BYTES)
        for f in range(total_families)
    ]
    requests: list[tuple[str, int, bool]] = []
    tails: list[bytes] = []
    for n in range(urls):
        family = rng.randrange(total_families)
        server = f"www.s{family % SERVERS}.example"
        sessiony = rng.random() < SESSION_FRACTION
        if sessiony:
            url = f"{server}/sess-{n:07d}/f{family}"
        else:
            url = f"{server}/f{family}?item={n}"
        requests.append((url, family, sessiony))
        tails.append(random.Random(seed * 7 + n).randbytes(TAIL_BYTES))
    return requests, skeletons, tails


def make_grouper(policy: str, estimator: LightEstimator) -> Grouper:
    encoder = VdeltaEncoder()
    counter = iter(range(1, 10_000_000))

    def factory(server: str, hint: str) -> DocumentClass:
        return DocumentClass(
            class_id=f"c{next(counter)}",
            server=server,
            hint=hint,
            anonymization=AnonymizationConfig(enabled=False),
            policy=FirstResponsePolicy(),
            encoder=encoder,
        )

    return Grouper(
        config=GroupingConfig(),
        rulebook=RuleBook(),
        estimator=estimator,
        class_factory=factory,
        sketcher=MinHashSketcher() if policy == "sketch" else None,
        seed=2002,
    )


def run_policy(
    policy: str,
    requests: list[tuple[str, int, bool]],
    skeletons: list[bytes],
    tails: list[bytes],
) -> dict:
    """Replay the workload through one grouper; time only the classify loop."""
    estimator = LightEstimator()
    grouper = make_grouper(policy, estimator)
    assignments: list[tuple[DocumentClass, bool]] = []
    started = time.perf_counter()
    for n, (url, family, _sessiony) in enumerate(requests):
        document = skeletons[family] + tails[n]
        cls, created = grouper.classify(url, document)
        if created:
            with cls.lock:
                cls.adopt_base(document, owner_user=None, now=0.0)
        assignments.append((cls, created))
    elapsed = time.perf_counter() - started

    # Untimed quality pass: delta bytes saved against each URL's *final*
    # class base.  Joined URLs only — a class's first request is a full
    # response, so every singleton a failed search mints earns nothing.
    saved = 0
    joined = 0
    for n, (url, family, _sessiony) in enumerate(requests):
        cls, created = assignments[n]
        if created:
            continue
        document = skeletons[family] + tails[n]
        with cls.lock:
            base = cls.match_base
            index = base.light_index(estimator) if base is not None and base.body else None
        if index is None:
            continue
        estimate = estimator.estimate_with_index(index, document)
        saved += max(0, len(document) - estimate)
        joined += 1

    stats = grouper.stats
    return {
        "policy": policy,
        "seconds": round(elapsed, 3),
        "urls_per_second": round(len(requests) / elapsed, 1),
        "classes": grouper.class_count(),
        "joined_urls": joined,
        "mean_probes_per_request": round(
            stats.total_tries / max(stats.requests, 1), 3
        ),
        "mean_probes_per_match": round(stats.mean_tries, 3),
        "sketch_hits": stats.sketch_hits,
        "sketch_misses": stats.sketch_misses,
        "delta_bytes_saved": saved,
    }


def run_benchmark(
    urls: int = DEFAULT_URLS,
    families_per_server: int = FAMILIES_PER_SERVER,
    smoke: bool = False,
    seed: int = 2002,
) -> dict:
    if smoke:
        urls = min(urls, SMOKE_URLS)
        families_per_server = min(families_per_server, SMOKE_FAMILIES_PER_SERVER)
    requests, skeletons, tails = build_workload(urls, families_per_server, seed)
    scan = run_policy("scan", requests, skeletons, tails)
    sketch = run_policy("sketch", requests, skeletons, tails)

    speedup = sketch["urls_per_second"] / max(scan["urls_per_second"], 1e-9)
    parity = sketch["delta_bytes_saved"] / max(scan["delta_bytes_saved"], 1)
    result = {
        "workload": {
            "urls": urls,
            "servers": SERVERS,
            "families": SERVERS * families_per_server,
            "session_fraction": SESSION_FRACTION,
            "document_bytes": SKELETON_BYTES + TAIL_BYTES,
            "seed": seed,
        },
        "scan": scan,
        "sketch": sketch,
        "throughput_ratio": round(speedup, 2),
        "savings_ratio": round(parity, 4),
        "gates": {
            "throughput_gate": None if smoke else THROUGHPUT_GATE,
            "parity_gate": PARITY_GATE,
            "smoke": smoke,
            "passed": (
                parity >= PARITY_GATE
                and (smoke or speedup >= THROUGHPUT_GATE)
            ),
        },
    }
    return result


def render(result: dict) -> str:
    w, gates = result["workload"], result["gates"]
    rows = []
    for arm in ("scan", "sketch"):
        r = result[arm]
        rows.append(
            f"{arm:<8} {r['urls_per_second']:>12,.0f} {r['classes']:>9,} "
            f"{r['mean_probes_per_request']:>8.2f} "
            f"{r['delta_bytes_saved']:>16,}"
        )
    gate_note = (
        "parity only (smoke)"
        if gates["smoke"]
        else f">= {gates['throughput_gate']:.0f}x and parity >= {gates['parity_gate']:.0%}"
    )
    return "\n".join(
        [
            f"workload: {w['urls']:,} URLs, {w['families']:,} families over "
            f"{w['servers']} servers, {w['session_fraction']:.0%} session-style "
            f"(~{w['document_bytes']} B documents)",
            "",
            f"{'policy':<8} {'URLs/s':>12} {'classes':>9} {'probes':>8} "
            f"{'delta bytes saved':>16}",
            *rows,
            "",
            f"sketch vs scan: {result['throughput_ratio']:.1f}x classify "
            f"throughput, {result['savings_ratio']:.2f}x delta bytes saved "
            f"(gate: {gate_note})",
            f"gate: {'PASS' if gates['passed'] else 'FAIL'}",
        ]
    )


def bench_grouping_scale(benchmark) -> None:
    """Pytest-benchmark entry point (smoke-sized)."""
    from _util import emit, once

    result = once(benchmark, lambda: run_benchmark(smoke=True))
    emit("grouping_scale", render(result))
    out = Path(__file__).parent / "results" / "BENCH_grouping.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    assert result["gates"]["passed"], render(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--urls", type=int, default=DEFAULT_URLS)
    parser.add_argument(
        "--families-per-server", type=int, default=FAMILIES_PER_SERVER
    )
    parser.add_argument("--seed", type=int, default=2002)
    parser.add_argument(
        "--smoke", action="store_true",
        help="10k URLs; gate on savings parity only (speedup informational)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_grouping.json",
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        urls=args.urls,
        families_per_server=args.families_per_server,
        smoke=args.smoke,
        seed=args.seed,
    )
    print(render(result))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    if not result["gates"]["passed"]:
        print("FAIL: grouping-scale gates not met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
