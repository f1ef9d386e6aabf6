"""Engine concurrency benchmark: serialized vs sharded delta-engine.

The seed engine took one global lock across the whole request pipeline —
origin fetch included — so N worker threads convoyed into an origin-bound
single file line.  The sharded engine (per-class locks, off-lock origin
fetch, snapshot-encode-commit delta generation) lets requests for
different classes overlap.  This benchmark drives the *same* engine code
both ways — as it is, and behind one caller-side lock held across
``handle`` (exactly the seed's discipline) — with N closed-loop threads
over M document classes and a configurable origin delay, and reports:

* throughput (requests/s) and latency percentiles (p50/p99) per mode;
* the lock-wait share of total pipeline time (from the per-request
  ``X-Stage-Times`` instrumentation);
* the sharded/serialized speedup — the headline number.

Both modes run the same engine code, so their bytes cannot differ; what a
fresh engine writes, response by response, is pinned by the golden
transcript (``tests/integration/test_engine_transcript.py``).

Results land in machine-readable form in
``benchmarks/results/BENCH_engine.json`` (override with ``--out``).  Run
standalone::

    python benchmarks/bench_engine_concurrency.py --smoke

Exit status is non-zero when the sharded engine fails its gate: faster
than serialized at all in ``--smoke`` mode, >= 2x on the full run (8
threads, 8 classes, 5 ms origin — the ISSUE's acceptance workload).
"""

from __future__ import annotations

import argparse
import json
import random
import string
import sys
import threading
import time
from pathlib import Path

if __name__ == "__main__":  # allow `python benchmarks/bench_...py` directly
    _SRC = Path(__file__).resolve().parent.parent / "src"
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))

from repro.core.config import AnonymizationConfig, DeltaServerConfig
from repro.core.delta_server import (
    DeltaServer,
    format_stage_times,
    parse_stage_times,
)
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_STAGE_TIMES,
    Headers,
    Request,
    Response,
)

INDEX_HEADER = "X-Bench-Index"
WARM_USERS = 4  # enough distinct users to drive anonymization to READY

DEFAULT_THREADS = 8
DEFAULT_CLASSES = 8
DEFAULT_REQUESTS_PER_THREAD = 50
DEFAULT_ORIGIN_DELAY = 0.005
FULL_GATE = 2.0  # ISSUE acceptance: >= 2x on the default workload


# -- synthetic corpus ---------------------------------------------------------


def _make_tokens(rng: random.Random, count: int) -> list[str]:
    return [
        "".join(rng.choices(string.ascii_lowercase, k=8)) for _ in range(count)
    ]


def build_corpus(
    classes: int, visits_per_class: int, seed: int, tokens_per_doc: int = 700
) -> tuple[list[str], list[list[bytes]], list[list[bytes]]]:
    """Per class: a URL, warm-up documents, and per-visit documents.

    Documents of one class share ~97% of their tokens with the class base
    (delta-friendly, like successive renders of one dynamic page);
    classes share nothing (so they stay distinct classes).
    """
    rng = random.Random(seed)
    urls: list[str] = []
    warm_docs: list[list[bytes]] = []
    visit_docs: list[list[bytes]] = []
    for c in range(classes):
        base = _make_tokens(rng, tokens_per_doc)
        urls.append(f"www.bench{c}.example/page")

        def variant() -> bytes:
            tokens = list(base)
            for _ in range(max(1, tokens_per_doc // 33)):
                tokens[rng.randrange(tokens_per_doc)] = "".join(
                    rng.choices(string.ascii_lowercase, k=8)
                )
            return (" ".join(tokens)).encode()

        warm_docs.append([variant() for _ in range(WARM_USERS + 1)])
        visit_docs.append([variant() for _ in range(visits_per_class)])
    return urls, warm_docs, visit_docs


def build_trace(
    urls: list[str], visit_docs: list[list[bytes]], total_requests: int
) -> list[tuple[str, bytes]]:
    """Round-robin over classes: request i hits class ``i % M``."""
    classes = len(urls)
    return [
        (urls[i % classes], visit_docs[i % classes][i // classes])
        for i in range(total_requests)
    ]


# -- engine under test --------------------------------------------------------


def make_engine(
    mode: str, documents: dict[int, bytes], origin_delay: float
) -> DeltaServer:
    async def fetch(request: Request, now: float) -> Response:
        if origin_delay:
            time.sleep(origin_delay)
        index = int(request.headers.get(INDEX_HEADER, "-1"))
        return Response(status=200, body=documents[index])

    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(documents=2, min_count=1),
        seed=7,
    )
    engine = DeltaServer(fetch, config)
    if mode == "serialized":
        serialize(engine)
    return engine


def serialize(engine: DeltaServer) -> None:
    """One lock across the whole pipeline, origin fetch included: the
    paper's single-CPU delta-server.  The wait for it joins the
    response's ``lock_wait`` stage so both rows report the same thing."""
    lock, handle = threading.Lock(), engine.handle

    def locked(request: Request, now: float) -> Response:
        entered = time.perf_counter()
        with lock:
            waited = time.perf_counter() - entered
            response = handle(request, now)
        stages = parse_stage_times(response.headers.get(HEADER_STAGE_TIMES))
        stages["lock_wait"] = stages.get("lock_wait", 0.0) + waited
        response.headers.set(HEADER_STAGE_TIMES, format_stage_times(stages))
        return response

    engine.handle = locked  # type: ignore[method-assign]


def _request(url: str, index: int, user: str, ref: str | None) -> Request:
    headers = Headers({INDEX_HEADER: str(index)})
    if ref:
        headers.set(HEADER_ACCEPT_DELTA, ref)
    return Request(url=url, headers=headers, cookies={"uid": user})


def warm(
    engine: DeltaServer,
    urls: list[str],
    warm_docs: list[list[bytes]],
    documents: dict[int, bytes],
) -> dict[str, str]:
    """Single-threaded warm-up: form classes, finish anonymization, and
    learn each class's current base ref (what a steady-state client holds)."""
    refs: dict[str, str] = {}
    index = -1
    for url, docs in zip(urls, warm_docs):
        for u, doc in enumerate(docs):
            documents[index] = doc
            response = engine.handle(
                _request(url, index, f"warm{u}", refs.get(url)), 0.0
            )
            index -= 1
            ref = response.base_file_ref
            if ref is not None and not response.is_delta:
                refs[url] = ref
        if url not in refs:
            raise RuntimeError(f"warm-up failed to produce a base ref for {url}")
    return refs


# -- measurement --------------------------------------------------------------


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[position]


def run_mode(
    mode: str,
    urls: list[str],
    warm_docs: list[list[bytes]],
    trace: list[tuple[str, bytes]],
    threads: int,
    origin_delay: float,
) -> dict:
    documents: dict[int, bytes] = {i: doc for i, (_, doc) in enumerate(trace)}
    engine = make_engine(mode, documents, origin_delay)
    refs = warm(engine, urls, warm_docs, documents)

    latencies: list[list[float]] = [[] for _ in range(threads)]
    lock_wait = [0.0] * threads
    stage_total = [0.0] * threads
    barrier = threading.Barrier(threads + 1)

    def worker(tid: int) -> None:
        my_latencies = latencies[tid]
        barrier.wait()
        for i in range(tid, len(trace), threads):
            url, _doc = trace[i]
            request = _request(url, i, f"user{tid}", refs.get(url))
            started = time.perf_counter()
            response = engine.handle(request, i * 0.01)
            my_latencies.append(time.perf_counter() - started)
            assert response.status == 200, response.status
            ref = response.base_file_ref
            if ref is not None:
                refs[url] = ref  # racy last-write-wins, like real clients
            stages = parse_stage_times(response.headers.get(HEADER_STAGE_TIMES))
            lock_wait[tid] += stages.get("lock_wait", 0.0)
            stage_total[tid] += sum(stages.values())

    pool = [threading.Thread(target=worker, args=(t,)) for t in range(threads)]
    for thread in pool:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in pool:
        thread.join()
    wall = time.perf_counter() - wall_start

    stats = engine.stats
    assert stats.requests == len(trace) + len(urls) * (WARM_USERS + 1)
    assert (
        stats.deltas_served + stats.full_served + stats.passthrough
        == stats.requests
    )
    flat = sorted(lat for per_thread in latencies for lat in per_thread)
    total_stage = sum(stage_total)
    return {
        "mode": mode,
        "wall_seconds": round(wall, 4),
        "throughput_rps": round(len(trace) / wall, 2),
        "p50_ms": round(_percentile(flat, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(flat, 0.99) * 1e3, 3),
        "lock_wait_share": round(
            sum(lock_wait) / total_stage if total_stage else 0.0, 4
        ),
        "deltas_served": stats.deltas_served,
        "full_served": stats.full_served,
        "commit_conflicts": stats.commit_conflicts,
        "savings": round(stats.savings, 4),
    }


# -- harness ------------------------------------------------------------------


def run_benchmark(
    threads: int = DEFAULT_THREADS,
    classes: int = DEFAULT_CLASSES,
    requests_per_thread: int = DEFAULT_REQUESTS_PER_THREAD,
    origin_delay: float = DEFAULT_ORIGIN_DELAY,
    smoke: bool = False,
    seed: int = 20020704,
) -> dict:
    if smoke:
        requests_per_thread = min(requests_per_thread, 20)
    total = threads * requests_per_thread
    visits_per_class = -(-total // classes)
    urls, warm_docs, visit_docs = build_corpus(classes, visits_per_class, seed)
    trace = build_trace(urls, visit_docs, total)

    serialized = run_mode("serialized", urls, warm_docs, trace, threads, origin_delay)
    sharded = run_mode("sharded", urls, warm_docs, trace, threads, origin_delay)
    speedup = (
        sharded["throughput_rps"] / serialized["throughput_rps"]
        if serialized["throughput_rps"]
        else 0.0
    )

    gate = 1.0 if smoke else FULL_GATE
    return {
        "workload": {
            "threads": threads,
            "classes": classes,
            "requests": total,
            "origin_delay_s": origin_delay,
            "smoke": smoke,
        },
        "serialized": serialized,
        "sharded": sharded,
        "speedup": round(speedup, 2),
        "gate": gate,
        "gate_passed": speedup > gate if smoke else speedup >= gate,
    }


def render(result: dict) -> str:
    lines = [
        f"workload: {result['workload']}",
        "",
        f"{'mode':<12} {'rps':>9} {'p50 ms':>9} {'p99 ms':>9} "
        f"{'lock-wait':>10} {'deltas':>7} {'conflicts':>10}",
    ]
    for mode in ("serialized", "sharded"):
        r = result[mode]
        lines.append(
            f"{mode:<12} {r['throughput_rps']:>9.1f} {r['p50_ms']:>9.2f} "
            f"{r['p99_ms']:>9.2f} {r['lock_wait_share']:>10.1%} "
            f"{r['deltas_served']:>7} {r['commit_conflicts']:>10}"
        )
    lines.append("")
    lines.append(
        f"speedup: {result['speedup']}x (gate {result['gate']}x, "
        f"{'PASS' if result['gate_passed'] else 'FAIL'})"
    )
    return "\n".join(lines)


def bench_engine_concurrency(benchmark) -> None:
    """Pytest-benchmark entry point (smoke-sized)."""
    from _util import emit, once

    result = once(benchmark, lambda: run_benchmark(smoke=True))
    emit("engine_concurrency", render(result))
    out = Path(__file__).parent / "results" / "BENCH_engine.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    assert result["gate_passed"], (
        f"sharded speedup {result['speedup']}x below gate {result['gate']}x"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=DEFAULT_THREADS)
    parser.add_argument("--classes", type=int, default=DEFAULT_CLASSES)
    parser.add_argument(
        "--requests-per-thread", type=int, default=DEFAULT_REQUESTS_PER_THREAD
    )
    parser.add_argument(
        "--origin-delay", type=float, default=DEFAULT_ORIGIN_DELAY,
        help="simulated origin render time per fetch, seconds",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small run; gate is 'sharded beats serialized at all' "
        "instead of the full 2x",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).parent / "results" / "BENCH_engine.json",
        help="where to write the machine-readable result",
    )
    args = parser.parse_args(argv)

    result = run_benchmark(
        threads=args.threads,
        classes=args.classes,
        requests_per_thread=args.requests_per_thread,
        origin_delay=args.origin_delay,
        smoke=args.smoke,
    )
    print(render(result))
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.out}")
    if not result["gate_passed"]:
        print(
            f"FAIL: speedup {result['speedup']}x below gate {result['gate']}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
