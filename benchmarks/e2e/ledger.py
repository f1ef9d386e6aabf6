"""The per-layer ledger: every number here is taken from outside the program.

Four sources, none of them instrumentation added to ``src/``:

* the driver's own timings of each document (``Sample.detail``);
* response headers the servers already emit (``X-Stage-Times``,
  ``X-Fleet-Worker``, ``X-Proxy-Cache``);
* ``/__metrics__`` scrapes and ``/proc`` CPU clocks before/after the
  traced phase (``harness.Observation``);
* timed direct calls into public functions, replaying the requests,
  documents and bases the traced phase recorded.
"""

from __future__ import annotations

import asyncio
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

import spec
from child import engine_config, site_spec
from driver import Detail, Population, Sample, Tracer, TwinOrigin, stage_total
from harness import OUT_DIR, Observation
from repro.core.sketch import MinHashSketcher
from repro.delta import VdeltaEncoder, apply_delta, compress
from repro.http.messages import Request, Response
from repro.metrics import nearest_rank_index
from repro.origin.site import SyntheticSite
from repro.proxy.cache import LRUCache
from repro.serve import DeltaExecutor, build_server, read_request, serialize_response
from repro.serve.protocol import HEADER_SERVED_AT
from repro.store import Store
from repro.workload.trace import TraceRecord

#: documents the in-process engine replica replays (warm pass + timed pass)
REPLAY_DOCS = 200
DIRECT_CALLS = 60


def percentile(values: Iterable[float], q: float) -> float:
    """Exact nearest-rank percentile over raw samples (0 when empty)."""
    ordered = sorted(values)
    return ordered[nearest_rank_index(len(ordered), q)] if ordered else 0.0


def median_seconds(fn: Callable, items: Iterable) -> float:
    """Median wall time of ``fn(item)`` over ``items`` (0 when empty)."""
    times = []
    for item in items:
        started = perf_counter()
        fn(item)
        times.append(perf_counter() - started)
    return statistics.median(times) if times else 0.0


def _delta(after: dict[str, float], before: dict[str, float], key: str) -> float:
    return after.get(key, 0.0) - before.get(key, 0.0)


def _stage_key(stage: str, part: str) -> str:
    return f'repro_engine_stage_seconds_{part}{{stage="{stage}"}}'


@dataclass
class TracedPhase:
    """Everything the traced phase left behind."""

    workload: spec.Workload
    samples: list[Sample]
    tracer: Tracer
    before: Observation
    after: Observation
    server_pids: list[int]
    proxy_pid: int | None
    lags: list[float]
    #: untraced / traced req_per_s, both computed the same way
    overhead_ratio: float
    #: proxy workload only: waits of the same trace sent straight to the server
    direct_details: list[Detail]
    sweep: list[TraceRecord]
    state_dir: Path | None


def per_layer(phase: TracedPhase) -> dict[str, float]:
    workload = phase.workload
    ok = [s for s in phase.samples if s.ok]
    details = [s.detail for s in ok]
    docs = max(len(ok), 1)
    wall = phase.after.at - phase.before.at
    server, before = phase.after.server_metrics, phase.before.server_metrics

    def cpu_ms_per_req(pids: Iterable[int]) -> float:
        used = sum(phase.after.cpu[p] - phase.before.cpu[p] for p in pids)
        return used * 1000.0 / docs

    # a layer the workload does not have reads 0
    out = dict.fromkeys((name for name, _, _ in spec.PER_LAYER), 0.0)

    # -- client ------------------------------------------------------------
    wire_in = sum(s.wire_in for s in ok)
    doc_bytes = sum(s.doc_bytes for s in ok)
    out["client.doc_latency_p90_ms"] = percentile((s.latency for s in ok), 90) * 1e3
    out["client.doc_latency_p99_ms"] = percentile((s.latency for s in ok), 99) * 1e3
    out["client.serialize_us"] = percentile((d.serialize for d in details), 50) * 1e6
    out["client.wait_ms_p50"] = percentile((d.wait for d in details), 50) * 1e3
    out["client.reconstruct_us"] = percentile((d.reconstruct for d in details), 50) * 1e6
    out["client.base_fetches"] = sum(d.base_fetch > 0 for d in details)
    out["client.base_fetch_ms_total"] = sum(d.base_fetch for d in details) * 1e3
    out["client.delta_share"] = sum(s.is_delta for s in ok) / docs
    out["client.sched_lag_p99_ms"] = percentile(phase.lags, 99) * 1e3
    out["client.bytes_saved_ratio"] = 1.0 - wire_in / doc_bytes if doc_bytes else 0.0
    out["client.cpu_ms_per_req"] = (
        (phase.after.client_cpu - phase.before.client_cpu) * 1000.0 / docs
    )

    # -- hops, then the shell measured on hop-free requests --------------------
    # fleet: connection k enters at worker k; another worker's stamp on
    # the response means the request took the forward hop
    local, forwarded = [], []
    for sample in ok:
        took_hop = sample.detail.worker not in (None, sample.conn)
        (forwarded if took_hop else local).append(sample.detail)
    hop_free = phase.direct_details if workload.topology == "proxy" else local
    shell = percentile((d.wait - stage_total(d.stages) for d in hop_free), 50)
    out["serve.shell_ms_p50"] = shell * 1e3
    out["serve.cpu_ms_per_req"] = cpu_ms_per_req(phase.server_pids)
    out["fleet.forwarded_share"] = len(forwarded) / docs
    out["fleet.forward_hop_ms_p50"] = (
        (percentile((d.wait for d in forwarded), 50)
         - percentile((d.wait for d in local), 50)) * 1e3
        if forwarded and local else 0.0
    )
    out["fleet.forward_failures"] = _delta(
        server, before, "repro_fleet_forward_failures_total"
    )
    worker_cpu = [phase.after.cpu[p] - phase.before.cpu[p] for p in phase.server_pids]
    out["fleet.worker_cpu_imbalance"] = (
        max(worker_cpu) / statistics.mean(worker_cpu)
        if len(worker_cpu) > 1 and sum(worker_cpu) else 0.0
    )
    proxy_hop = 0.0
    if workload.topology == "proxy":
        proxy, proxy_before = phase.after.proxy_metrics, phase.before.proxy_metrics
        base_states = [d.base_proxy_state for d in details if d.base_fetch > 0]
        proxy_hop = (
            percentile((d.wait for d in details), 50)
            - percentile((d.wait for d in phase.direct_details), 50)
        )
        out["proxy.cache_hit_ratio"] = (
            base_states.count("hit") / len(base_states) if base_states else 0.0
        )
        out["proxy.upstream_bytes_per_req"] = _delta(
            proxy, proxy_before, "repro_proxy_upstream_wire_bytes_total"
        ) / docs
        out["proxy.cpu_ms_per_req"] = cpu_ms_per_req([phase.proxy_pid])
        out["proxy.hop_ms_p50"] = proxy_hop * 1e3

    # -- engine: /__metrics__ deltas and X-Stage-Times samples -----------------
    for stage in ("lock_wait", "origin_fetch", "classify", "encode", "compress",
                  "base_file", "store_commit"):
        out[f"engine.{stage}_ms_per_req"] = (
            _delta(server, before, _stage_key(stage, "sum")) * 1000.0 / docs
        )
    out["engine.classify_ms_p99"] = percentile(
        (d.stages.get("classify", 0.0) for d in details), 99) * 1e3
    stage_sum = percentile((stage_total(d.stages) for d in details), 50)
    out["engine.stage_sum_ms_p50"] = stage_sum * 1e3
    hits = _delta(server, before, "repro_delta_encode_cache_hits_total")
    misses = _delta(server, before, "repro_delta_encode_cache_misses_total")
    out["engine.encode_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["engine.rebases"] = _delta(
        server, before, "repro_engine_group_rebases_total"
    ) + _delta(server, before, "repro_engine_basic_rebases_total")
    out["engine.commit_conflicts"] = _delta(
        server, before, "repro_engine_commit_conflicts_total"
    )
    middle = phase.before.at + wall / 2
    first = sum(1 for s in ok if s.end <= middle)
    out["engine.half_drift_ratio"] = (docs - first) / first if first else 0.0
    out["grouping.classes"] = server.get("repro_engine_classes", 0.0)
    out["store.commits"] = _delta(server, before, "repro_store_commits_total")
    out["store.pack_bytes"] = server.get("repro_store_pack_bytes", 0.0)

    # -- timed direct calls on what the phase recorded -------------------------
    out.update(asyncio.run(_direct_calls(phase)))
    out["serve.shell_unattributed_ms_p50"] = out["serve.shell_ms_p50"] - (
        out["serve.parse_request_us"] + out["serve.serialize_response_us"]
        + out["serve.executor_hop_us"]
    ) / 1e3

    # -- the p50 budget --------------------------------------------------------
    hops = proxy_hop + out["fleet.forward_hop_ms_p50"] / 1e3 * out["fleet.forwarded_share"]
    attributed = (
        out["client.serialize_us"] / 1e6 + shell + stage_sum + hops
        + out["client.reconstruct_us"] / 1e6
    )
    out["budget.attributed_ms_p50"] = attributed * 1e3
    out["budget.unattributed_ms_p50"] = (
        percentile((s.latency for s in ok), 50) - attributed
    ) * 1e3
    out["trace.overhead_ratio"] = phase.overhead_ratio
    return out


async def _direct_calls(phase: TracedPhase) -> dict[str, float]:
    workload, tracer = phase.workload, phase.tracer
    exchanges = tracer.exchanges
    epoch = spec.CHURN_EPOCH if workload.churn else spec.STEADY_EPOCH
    site = SyntheticSite(site_spec(epoch))
    out: dict[str, float] = {}

    # serve: the shell's pure-Python parts, one at a time
    parse_times = []
    for _, wire, _ in exchanges[:DIRECT_CALLS]:
        reader = asyncio.StreamReader()
        reader.feed_data(wire)
        reader.feed_eof()
        started = perf_counter()
        await read_request(reader)
        parse_times.append(perf_counter() - started)
    out["serve.parse_request_us"] = (
        statistics.median(parse_times) * 1e6 if parse_times else 0.0
    )
    out["serve.serialize_response_us"] = median_seconds(
        lambda x: serialize_response(x[2], chunked=len(x[2].body) >= 16 * 1024),
        exchanges[:DIRECT_CALLS],
    ) * 1e6
    hop_times = []
    with DeltaExecutor("thread") as executor:
        for _ in range(300):
            started = perf_counter()
            await executor.run(int)
            hop_times.append(perf_counter() - started)
    out["serve.executor_hop_us"] = statistics.median(hop_times) * 1e6

    # origin / sketch / delta kernels
    twin = TwinOrigin(site)
    out["origin.render_us"] = median_seconds(
        lambda x: twin.render(x[0], float(x[2].headers.get(HEADER_SERVED_AT))),
        exchanges[:DIRECT_CALLS],
    ) * 1e6
    pairs = tracer.pairs[:DIRECT_CALLS]
    documents = [doc for _, doc in pairs[:20]]
    sketcher = MinHashSketcher()
    out["sketch.signature_us"] = median_seconds(sketcher.signature, documents) * 1e6
    encoder = VdeltaEncoder()
    bases = list({id(base): base for base, _ in pairs}.values())[:5]
    out["delta.index_ms_per_base"] = median_seconds(encoder.index, bases) * 1e3
    indexes = {id(base): encoder.index(base) for base in bases}
    usable = [(base, doc) for base, doc in pairs if id(base) in indexes]
    out["delta.encode_ms_per_doc"] = median_seconds(
        lambda p: encoder.encode_wire_with_index(indexes[id(p[0])], p[1]), usable
    ) * 1e3
    wires = [
        (base, bytes(encoder.encode_wire_with_index(indexes[id(base)], doc)))
        for base, doc in usable
    ]
    out["delta.compress_us"] = median_seconds(lambda w: compress(w[1]), wires) * 1e6
    out["delta.apply_us"] = median_seconds(
        lambda w: apply_delta(w[1], w[0]), wires
    ) * 1e6
    out["delta.wire_bytes_per_delta"] = (
        statistics.mean(len(compress(wire)) for _, wire in wires) if wires else 0.0
    )

    # engine + grouping: an in-process replica fed the recorded requests
    replica = build_server([site], config=engine_config())
    try:
        out.update(_replay(replica.engine, phase, epoch))
    finally:
        await replica.close()

    if workload.topology == "proxy":
        cache = LRUCache()
        urls = []
        for record, _, response in exchanges:
            if not response.is_delta:
                cachable = Response(status=200, body=response.body)
                cachable.mark_cachable()
                cache.put(record.url, cachable, 0.0)
                urls.append(record.url)
        out["proxy.cache_get_us"] = median_seconds(
            lambda url: cache.lookup(url, 1.0), urls[:DIRECT_CALLS]
        ) * 1e6

    if phase.state_dir is not None:
        started = perf_counter()
        Store.open(phase.state_dir).close()
        out["store.recovery_ms"] = (perf_counter() - started) * 1e3
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="commit-", dir=OUT_DIR) as scratch:
            store = Store.open(scratch)
            store.add_class("cls1", spec.SITE_NAME, "ledger")
            versions = iter(range(1, 10_000))
            out["store.commit_ms_p50"] = median_seconds(
                lambda doc: store.commit_base("cls1", next(versions), doc),
                [exchange[2].body for exchange in exchanges
                 if not exchange[2].is_delta][:20],
            ) * 1e3
            store.close()
    return out


def _replay(engine, phase: TracedPhase, epoch: float) -> dict[str, float]:
    """Time ``DeltaServer.handle`` and the grouper on the recorded requests."""
    records = [record for record, _, _ in phase.tracer.exchanges[:REPLAY_DOCS]]
    population = Population()
    clock = iter(range(1, 10_000_000))

    def handle(record: TraceRecord) -> tuple[float, bytes]:
        now = next(clock) * epoch if phase.workload.churn else 0.0
        request = population.request_for(record)
        started = perf_counter()
        response = engine.handle(request, now)
        seconds = perf_counter() - started
        # X-Body-Digest is the HTTP shell's stamp; the bare engine has none
        document = (
            population.reconstruct(response) if response.is_delta else response.body
        )
        base_url = population.base_url_to_fetch(record, response)
        if base_url is not None:
            base = engine.handle(Request(url=base_url), now)
            population.base_cache[response.base_file_ref] = base.body
        return seconds, document

    if phase.workload.warm:
        for record in phase.sweep + records:
            handle(record)
    timed = [handle(record) for record in records]
    seconds = [t for t, _ in timed]
    grouper = engine.grouper
    mapped = median_seconds(
        lambda x: grouper.classify(x[0].url, x[1][1], {}), zip(records, timed)
    )
    fresh = [
        (f"{record.url}&sid=ledger{i}", document)
        for i, (record, (_, document)) in enumerate(zip(records[:20], timed))
    ]
    new = median_seconds(lambda x: grouper.classify(x[0], x[1], {}), fresh)
    return {
        "engine.handle_ms_p50": percentile(seconds, 50) * 1e3,
        "engine.handle_ms_p99": percentile(seconds, 99) * 1e3,
        "grouping.classify_mapped_us": mapped * 1e6,
        "grouping.classify_new_ms": new * 1e3,
        "grouping.mean_tries": grouper.stats.mean_tries,
    }
