"""The benchmark's fixed tables: workloads, metrics, bounds, harness constants.

Pure data — imports nothing from ``repro`` — so ``run.py`` can render
``BENCHMARK.json`` from it and ``selftest.py`` can check the two agree.
Workload and metric names are permanent: later PRs are judged against
numbers recorded under them.
"""

from __future__ import annotations

from dataclasses import dataclass

# -- harness constants (identical for every workload) ---------------------------

SITE_NAME = "www.shop.example"
PRODUCTS_PER_CATEGORY = 5  # x 4 default categories = 20 pages, ~34 KB each
ANON_DOCUMENTS = 3
ANON_MIN_COUNT = 1
MAX_CONNECTIONS = 255
#: content-time pinning through ``SiteSpec.epoch_seconds`` (server clock
#: is monotonic seconds): one epoch for the whole run, or a new epoch on
#: (nearly) every request
STEADY_EPOCH = 1e9
CHURN_EPOCH = 0.001

#: keep-alive connections the single driver process opens (<= nproc)
CONNECTIONS = 2
USERS = 24
REVISIT_BIAS = 0.6
#: records in one generated trace; closed loops cycle it until the deadline
TRACE_REQUESTS = 600
#: users of the READY sweep (anonymization needs 3 distinct users per class)
WARM_USERS = ("warm-a", "warm-b", "warm-c")
OPEN_RATE = 100.0  # req/s, steady_open
SETUP_REPEATS = 3  # setup_s is the median of this many boot+warm cycles
#: unmeasured trace cycling after set-up on steady workloads (cache fill)
SETTLE_SECONDS = 5.0
REQUEST_TIMEOUT = 15.0
#: a run whose open-loop generator was later than this (p90) is invalid
MAX_SCHED_LAG_MS = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topology: str = "direct"  # direct | proxy | fleet
    churn: bool = False
    open_loop: bool = False
    warm: bool = True
    session_urls: bool = False
    users: int = USERS
    state_dir: bool = False
    populations: int = 1
    #: every pass over the trace is the same work once the stack has settled,
    #: so the workload reports its median pass
    steady: bool = True


WORKLOADS = (
    Workload(
        "steady_direct",
        "closed loop, steady content, warmed: encode-cache hits and ~1 KB deltas, "
        "so HTTP shell + executor hop + client dominate the median",
    ),
    Workload(
        "churn_direct",
        "same trace, new content epoch per request: full vdelta scan + compress "
        "every time, so engine classify/encode dominate and the shell is diluted",
        churn=True,
        steady=False,
    ),
    Workload(
        "cold_session_store",
        "no warm-up, per-user session URLs, fsync'd store: class creation, LSH "
        "search, adoption and commits interleave with delta serving",
        warm=False,
        session_urls=True,
        users=60,
        state_dir=True,
        steady=False,
    ),
    Workload(
        "proxy_populations",
        "4 fresh client populations in turn through one caching proxy: every "
        "document pays the proxy hop, base-files hit its cache",
        topology="proxy",
        populations=4,
    ),
    Workload(
        "fleet2_steady",
        "two fleet workers, connection k pinned to worker k: about half the "
        "requests take the forward hop",
        topology="fleet",
    ),
    Workload(
        "steady_open",
        "steady_direct's stack under seeded Poisson arrivals at 100 req/s, latency "
        "from due time: one engine stall delays every arrival queued behind it",
        open_loop=True,
    ),
)

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}

# -- end-to-end metrics: (name, unit, better, bound) ----------------------------
# Bounds are shares of the parent's median; see README.md for the measured
# run-to-run spreads they were set from.

END_TO_END = (
    ("req_per_s", "1/s", "higher", 0.25),
    ("doc_latency_p50_ms", "ms", "lower", 0.25),
    ("wire_bytes_per_doc", "B", "lower", 0.25),
    ("server_cpu_ms_per_req", "ms", "lower", 0.25),
    ("server_peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
)

# -- per-layer metrics: (name, unit, better) ------------------------------------

PER_LAYER = (
    # client: the driver + repro.delta.apply
    ("client.doc_latency_p90_ms", "ms", "lower"),
    ("client.doc_latency_p99_ms", "ms", "lower"),
    ("client.serialize_us", "us", "lower"),
    ("client.wait_ms_p50", "ms", "lower"),
    ("client.reconstruct_us", "us", "lower"),
    ("client.base_fetches", "count", "lower"),
    ("client.base_fetch_ms_total", "ms", "lower"),
    ("client.delta_share", "ratio", "higher"),
    ("client.sched_lag_p99_ms", "ms", "lower"),
    ("client.bytes_saved_ratio", "ratio", "higher"),
    ("client.cpu_ms_per_req", "ms", "lower"),
    # serve: repro.serve (HTTP shell + executor)
    ("serve.shell_ms_p50", "ms", "lower"),
    ("serve.cpu_ms_per_req", "ms", "lower"),
    ("serve.parse_request_us", "us", "lower"),
    ("serve.serialize_response_us", "us", "lower"),
    ("serve.executor_hop_us", "us", "lower"),
    ("serve.shell_unattributed_ms_p50", "ms", "lower"),
    # engine: repro.core.delta_server, from X-Stage-Times and /__metrics__
    ("engine.lock_wait_ms_per_req", "ms", "lower"),
    ("engine.origin_fetch_ms_per_req", "ms", "lower"),
    ("engine.classify_ms_per_req", "ms", "lower"),
    ("engine.classify_ms_p99", "ms", "lower"),
    ("engine.encode_ms_per_req", "ms", "lower"),
    ("engine.compress_ms_per_req", "ms", "lower"),
    ("engine.base_file_ms_per_req", "ms", "lower"),
    ("engine.store_commit_ms_per_req", "ms", "lower"),
    ("engine.stage_sum_ms_p50", "ms", "lower"),
    ("engine.encode_cache_hit_ratio", "ratio", "higher"),
    ("engine.rebases", "count", "lower"),
    ("engine.commit_conflicts", "count", "lower"),
    ("engine.half_drift_ratio", "ratio", "higher"),
    ("engine.handle_ms_p50", "ms", "lower"),
    ("engine.handle_ms_p99", "ms", "lower"),
    # grouping / sketch: repro.core.grouping, repro.core.sketch
    ("grouping.classes", "count", "lower"),
    ("grouping.mean_tries", "count", "lower"),
    ("grouping.classify_mapped_us", "us", "lower"),
    ("grouping.classify_new_ms", "ms", "lower"),
    ("sketch.signature_us", "us", "lower"),
    # delta: repro.delta, direct calls on recorded (base, document) pairs
    ("delta.index_ms_per_base", "ms", "lower"),
    ("delta.encode_ms_per_doc", "ms", "lower"),
    ("delta.compress_us", "us", "lower"),
    ("delta.apply_us", "us", "lower"),
    ("delta.wire_bytes_per_delta", "B", "lower"),
    # origin
    ("origin.render_us", "us", "lower"),
    # store: repro.store
    ("store.commits", "count", "lower"),
    ("store.pack_bytes", "B", "lower"),
    ("store.commit_ms_p50", "ms", "lower"),
    ("store.recovery_ms", "ms", "lower"),
    # proxy: repro.proxy
    ("proxy.cache_hit_ratio", "ratio", "higher"),
    ("proxy.upstream_bytes_per_req", "B", "lower"),
    ("proxy.cpu_ms_per_req", "ms", "lower"),
    ("proxy.hop_ms_p50", "ms", "lower"),
    ("proxy.cache_get_us", "us", "lower"),
    # fleet: repro.fleet
    ("fleet.forwarded_share", "ratio", "lower"),
    ("fleet.forward_hop_ms_p50", "ms", "lower"),
    ("fleet.forward_failures", "count", "lower"),
    ("fleet.worker_cpu_imbalance", "ratio", "lower"),
    # the p50 budget and the cost of tracing itself
    ("budget.attributed_ms_p50", "ms", "lower"),
    ("budget.unattributed_ms_p50", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

RUN_SECONDS = 10


def manifest() -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }
