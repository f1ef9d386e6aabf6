"""Delta kernel benchmark: streaming wire kernel vs the pre-rewrite encoder.

The encode hot path was rewritten for zero-copy, allocation-free operation
(direct wire emission, ``startswith``-offset match extension, no
per-probe candidate list copies, no intermediate instruction objects, and
encode→``zlib.compressobj`` streaming).  This benchmark drives the live
kernel and a frozen verbatim snapshot of the pre-rewrite encoder
(``benchmarks/_legacy_vdelta.py``) over the same corpus and reports:

* encode throughput (MB/s) per corpus pair and in aggregate, with the
  new/old speedup on the reference pair (``site_rerender``, the corpus
  this file benchmarked before the rewrite — the paper's dynamic-page
  workload) as the headline, gated at >= 2x; every other pair must still
  beat the legacy kernel (> 1x) so the speedup is not bought with a
  regression elsewhere;
* a byte-parity check: both kernels must produce *identical wire bytes*
  for every pair (which also proves wire size <= the old kernel's), and
  the wire must reconstruct the target document exactly;
* a streaming-equivalence check: the chunked encode→compressobj path must
  produce the same compressed payload as compressing the whole wire image;
* the cost of an *index* of the reference base in both geometries the engine
  builds (full 4/1, light 16/8): build time, bytes held (tracemalloc) and
  the containers it hands the cyclic GC.  An index may track one container
  per repeated key, never one per key, and the full-geometry build must stay
  within 1.25x of the legacy builder's, timed in the same run.

Results land in machine-readable form in
``benchmarks/results/BENCH_kernel.json`` (override with ``--out``).  Run
standalone::

    python benchmarks/bench_delta_kernels.py --smoke

Exit status is non-zero when the kernel fails its gate: faster than the
legacy encoder at all in ``--smoke`` mode, >= 2x on the full run (the
ISSUE's acceptance bar), any parity violation, or an index gate.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import string
import sys
import time
import tracemalloc
import zlib
from collections import Counter
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_...py` directly
    _HERE = Path(__file__).resolve().parent
    for entry in (str(_HERE.parent / "src"), str(_HERE)):
        if entry not in sys.path:
            sys.path.insert(0, entry)

from _legacy_vdelta import LegacyVdeltaEncoder
from repro.delta.apply import apply_delta
from repro.delta.compress import compress
from repro.delta.light import LightEstimator
from repro.delta.vdelta import BaseIndex, VdeltaEncoder
from repro.origin.site import SiteSpec, SyntheticSite

FULL_GATE = 2.0  # acceptance: >= 2x encode throughput on the reference pair
REFERENCE_PAIR = "site_rerender"  # the pre-rewrite bench corpus
PAIR_FLOOR = 1.0  # no pair may regress below the legacy kernel
FULL_ITERATIONS = 30
SMOKE_ITERATIONS = 4
COMPRESSION_LEVEL = 6
FULL_BUILD_CEILING = 1.25  # full-geometry index build vs the legacy builder
INDEX_BUILDS = 15  # single builds per builder, both modes: one is ~10 ms


# -- corpus -------------------------------------------------------------------


def _token_pair(
    rng: random.Random, tokens: int, mutations: int
) -> tuple[bytes, bytes]:
    """Token-soup documents sharing all but ``mutations`` tokens — the
    shape of successive renders of one dynamic page."""
    vocab = [
        "".join(rng.choices(string.ascii_lowercase, k=8)) for _ in range(tokens)
    ]
    base = " ".join(vocab).encode()
    mutated = list(vocab)
    for _ in range(mutations):
        mutated[rng.randrange(tokens)] = "".join(
            rng.choices(string.ascii_lowercase, k=8)
        )
    return base, " ".join(mutated).encode()


def build_corpus(seed: int = 20020704) -> list[dict]:
    """Named (base, target) pairs spanning the kernel's regimes."""
    rng = random.Random(seed)
    site = SyntheticSite(
        SiteSpec(
            name="www.kern.example",
            header_bytes=6000,
            skeleton_bytes=28000,
            detail_bytes=16000,
            dynamic_bytes=4000,
        )
    )
    page = site.all_pages()[0]
    pairs = [
        {
            "name": "site_rerender",
            "comment": "55 KB synthetic page, two renders 10 min apart",
            "base": site.render(page, 0.0),
            "target": site.render(page, 600.0),
        },
    ]
    base, target = _token_pair(rng, tokens=3000, mutations=90)
    pairs.append(
        {
            "name": "token_drift",
            "comment": "27 KB token soup, ~3% tokens replaced",
            "base": base,
            "target": target,
        }
    )
    base, target = _token_pair(rng, tokens=700, mutations=20)
    pairs.append(
        {
            "name": "small_doc",
            "comment": "6 KB document, the min_document_bytes regime",
            "base": base,
            "target": target,
        }
    )
    run_base, run_target = _token_pair(rng, tokens=1500, mutations=40)
    pairs.append(
        {
            "name": "padded_runs",
            "comment": "13 KB document with long padding runs in the edits",
            "base": run_base + b" " * 400 + run_base[:2000],
            "target": run_target + b"=" * 700 + run_base[:2000] + b"\n" * 300,
        }
    )
    unrelated = "".join(
        rng.choices(string.ascii_letters + string.digits, k=20000)
    ).encode()
    pairs.append(
        {
            "name": "cold_mismatch",
            "comment": "20 KB of unrelated bytes — the literal-heavy worst case",
            "base": pairs[0]["base"],
            "target": unrelated,
        }
    )
    return pairs


# -- measurement --------------------------------------------------------------


def _time_encode(encode, iterations: int) -> float:
    """Best-of-three mean seconds per encode (shields against CI jitter)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(iterations):
            encode()
        best = min(best, (time.perf_counter() - started) / iterations)
    return best


def measure_pair(pair: dict, iterations: int) -> dict:
    base, target = pair["base"], pair["target"]
    new_encoder = VdeltaEncoder()
    legacy_encoder = LegacyVdeltaEncoder()
    new_index = new_encoder.index(base)
    legacy_index = legacy_encoder.index(base)
    target_checksum = zlib.adler32(target) & 0xFFFFFFFF

    new_wire = bytes(
        new_encoder.encode_wire_with_index(new_index, target, target_checksum)
    )
    legacy_wire = legacy_encoder.encode_wire(legacy_index, target, target_checksum)
    wire_identical = new_wire == legacy_wire
    reconstructs = apply_delta(new_wire, base) == target

    # Streaming equivalence: chunked encode->compressobj must equal
    # compressing the whole wire image (what the engine used to ship).
    compressor = zlib.compressobj(COMPRESSION_LEVEL)
    parts: list[bytes] = []
    streamed_size = new_encoder.encode_stream_with_index(
        new_index,
        target,
        lambda chunk: parts.append(compressor.compress(chunk)),
        target_checksum,
    )
    parts.append(compressor.flush())
    stream_equivalent = (
        streamed_size == len(new_wire)
        and b"".join(parts) == compress(new_wire, COMPRESSION_LEVEL)
    )

    buffer = bytearray()
    new_seconds = _time_encode(
        lambda: new_encoder.encode_wire_with_index(
            new_index, target, target_checksum, out=buffer
        ),
        iterations,
    )
    legacy_seconds = _time_encode(
        lambda: legacy_encoder.encode_wire(legacy_index, target, target_checksum),
        iterations,
    )
    return {
        "name": pair["name"],
        "comment": pair["comment"],
        "base_bytes": len(base),
        "target_bytes": len(target),
        "wire_bytes": len(new_wire),
        "legacy_wire_bytes": len(legacy_wire),
        "new_ms": round(new_seconds * 1e3, 4),
        "legacy_ms": round(legacy_seconds * 1e3, 4),
        "new_mb_s": round(len(target) / new_seconds / 1e6, 2),
        "legacy_mb_s": round(len(target) / legacy_seconds / 1e6, 2),
        "speedup": round(legacy_seconds / new_seconds, 2),
        "wire_identical": wire_identical,
        "reconstructs": reconstructs,
        "stream_equivalent": stream_equivalent,
        "_new_seconds": new_seconds,
        "_legacy_seconds": legacy_seconds,
    }


def _best_build_ms(*builds) -> list[float]:
    """Fastest single call of each builder, the builders taking turns.

    A ratio of two ~10 ms builds is gated, so both must see the same
    machine: a noisy second on a shared runner lands on every builder, and
    the minimum discards it.
    """
    best = [float("inf")] * len(builds)
    for _ in range(INDEX_BUILDS):
        for i, build in enumerate(builds):
            started = time.perf_counter()
            build()
            best[i] = min(best[i], time.perf_counter() - started)
    return [round(seconds * 1e3, 4) for seconds in best]


def _index_footprint(build) -> tuple[int, int]:
    """``(bytes held, GC-tracked objects)`` of one index, collector paused."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = len(gc.get_objects())
        index = build()
        tracked = len(gc.get_objects()) - before - 1  # less the index object
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    del index
    return held, tracked


def measure_index(base: bytes) -> dict:
    """Both geometries the engine indexes a base-file in, on one document."""
    report: dict = {"base_bytes": len(base)}
    legacy = LegacyVdeltaEncoder()
    for name, geometry in (("full", VdeltaEncoder()), ("light", LightEstimator())):
        chunk, step = geometry.chunk_size, geometry.step

        def build() -> BaseIndex:
            return BaseIndex(base, chunk_size=chunk, step=step)

        counts = Counter(
            base[i : i + chunk] for i in range(0, len(base) - chunk + 1, step)
        )
        held, tracked = _index_footprint(build)
        report[name] = {
            "chunk_size": chunk,
            "step": step,
            "keys": len(counts),
            "repeated_keys": sum(1 for n in counts.values() if n > 1),
            "index_bytes": held,
            "gc_tracked_objects_per_index": tracked,
        }
        if name == "full":
            build_ms, legacy_ms = _best_build_ms(build, lambda: legacy.index(base))
            report[name]["legacy_index_build_ms"] = legacy_ms
            report[name]["build_ratio"] = round(build_ms / legacy_ms, 3)
        else:
            (build_ms,) = _best_build_ms(build)
        report[name]["index_build_ms"] = build_ms
    report["gates"] = {
        # the table itself, plus one chain per repeated key
        "tracked_within_repeated_keys": all(
            report[name]["gc_tracked_objects_per_index"]
            <= report[name]["repeated_keys"] + 1
            for name in ("full", "light")
        ),
        "full_build_within_ceiling": report["full"]["build_ratio"]
        <= FULL_BUILD_CEILING,
    }
    return report


def run_benchmark(smoke: bool = False, seed: int = 20020704) -> dict:
    iterations = SMOKE_ITERATIONS if smoke else FULL_ITERATIONS
    pairs = build_corpus(seed)
    results = [measure_pair(pair, iterations) for pair in pairs]
    index = measure_index(pairs[0]["base"])

    total_new = sum(r.pop("_new_seconds") for r in results)
    total_legacy = sum(r.pop("_legacy_seconds") for r in results)
    total_bytes = sum(r["target_bytes"] for r in results)
    reference = next(r for r in results if r["name"] == REFERENCE_PAIR)
    speedup = reference["speedup"]
    parity = all(r["wire_identical"] and r["reconstructs"] for r in results)
    streaming = all(r["stream_equivalent"] for r in results)
    wire_bounded = all(
        r["wire_bytes"] <= r["legacy_wire_bytes"] for r in results
    )
    # Smoke runs too few iterations to hold every pair to a timing floor;
    # the full run insists nothing regressed below the legacy kernel.
    no_regression = smoke or all(r["speedup"] > PAIR_FLOOR for r in results)

    gate = 1.0 if smoke else FULL_GATE
    return {
        "workload": {
            "pairs": len(results),
            "iterations": iterations,
            "corpus_bytes": total_bytes,
            "smoke": smoke,
        },
        "pairs": results,
        "reference": {"pair": REFERENCE_PAIR, "speedup": speedup},
        "aggregate": {
            "new_mb_s": round(total_bytes / total_new / 1e6, 2),
            "legacy_mb_s": round(total_bytes / total_legacy / 1e6, 2),
            "speedup": round(total_legacy / total_new, 2) if total_new else 0.0,
        },
        "gate": gate,
        "gate_passed": (speedup > gate if smoke else speedup >= gate)
        and parity
        and streaming
        and wire_bounded
        and no_regression
        and all(index["gates"].values()),
        "index": index,
        "byte_parity": {
            "wire_identical": parity,
            "wire_size_bounded": wire_bounded,
            "stream_equivalent": streaming,
        },
    }


def render(result: dict) -> str:
    lines = [
        f"workload: {result['workload']}",
        "",
        f"{'pair':<16} {'target':>8} {'wire':>7} {'old MB/s':>9} "
        f"{'new MB/s':>9} {'speedup':>8} {'parity':>7}",
    ]
    for r in result["pairs"]:
        parity = "ok" if r["wire_identical"] and r["reconstructs"] else "FAIL"
        lines.append(
            f"{r['name']:<16} {r['target_bytes']:>8} {r['wire_bytes']:>7} "
            f"{r['legacy_mb_s']:>9.1f} {r['new_mb_s']:>9.1f} "
            f"{r['speedup']:>7.2f}x {parity:>7}"
        )
    index = result["index"]
    lines.append("")
    lines.append(
        f"index of the {index['base_bytes']} B reference base "
        f"(gates {'ok' if all(index['gates'].values()) else 'FAIL'}):"
    )
    for name in ("full", "light"):
        g = index[name]
        against = (
            f", {g['build_ratio']}x the legacy build "
            f"(ceiling {FULL_BUILD_CEILING}x)"
            if name == "full"
            else ""
        )
        lines.append(
            f"  {name:<5} {g['chunk_size']:>2}/{g['step']}: "
            f"{g['index_build_ms']:.2f} ms, {g['index_bytes'] / 1e6:.2f} MB, "
            f"{g['gc_tracked_objects_per_index']} GC-tracked objects for "
            f"{g['keys']} keys ({g['repeated_keys']} repeated){against}"
        )
    agg = result["aggregate"]
    ref = result["reference"]
    lines.append("")
    lines.append(
        f"reference {ref['pair']}: {ref['speedup']}x "
        f"(gate {result['gate']}x, "
        f"{'PASS' if result['gate_passed'] else 'FAIL'}); "
        f"aggregate: {agg['legacy_mb_s']} -> {agg['new_mb_s']} MB/s, "
        f"{agg['speedup']}x; "
        f"wire {'identical' if result['byte_parity']['wire_identical'] else 'DIVERGED'}, "
        f"streaming {'equivalent' if result['byte_parity']['stream_equivalent'] else 'DIVERGED'}"
    )
    return "\n".join(lines)


def bench_delta_kernel(benchmark) -> None:
    """Pytest-benchmark entry point (smoke-sized)."""
    from _util import emit, once

    result = once(benchmark, lambda: run_benchmark(smoke=True))
    emit("delta_kernel", render(result))
    out = Path(__file__).parent / "results" / "BENCH_kernel.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    assert result["byte_parity"]["wire_identical"]
    assert result["byte_parity"]["stream_equivalent"]
    assert all(result["index"]["gates"].values()), result["index"]
    assert result["gate_passed"], (
        f"kernel speedup {result['reference']['speedup']}x on "
        f"{result['reference']['pair']} below gate {result['gate']}x"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="few iterations; gate is 'faster than legacy at all' "
        "instead of the full 2x",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_kernel.json",
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(smoke=args.smoke)
    print(render(result))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    if not result["gate_passed"]:
        ref = result["reference"]
        print(
            f"FAIL: {ref['pair']} speedup {ref['speedup']}x below gate "
            f"{result['gate']}x, a pair regressed below {PAIR_FLOOR}x, "
            f"parity violated ({result['byte_parity']}), or an index gate "
            f"failed ({result['index']['gates']})",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
