#!/usr/bin/env python3
"""Compile EXPERIMENTS.md from benchmarks/results/*.txt.

Run after ``pytest benchmarks/ --benchmark-only`` to regenerate the
paper-vs-measured log:

    python benchmarks/compile_experiments.py
"""

from __future__ import annotations

from pathlib import Path

RESULTS = Path(__file__).parent / "results"
OUTPUT = Path(__file__).parent.parent / "EXPERIMENTS.md"

# (section title, commentary, result files)
SECTIONS: list[tuple[str, str, list[str]]] = [
    (
        "Table I — URL parts",
        "The three URL organizations from the paper partition exactly as "
        "printed in Table I (asserted byte-for-byte in the bench).",
        ["table1_url_parts"],
    ),
    (
        "Table II — bandwidth savings (three sites)",
        "Synthetic traces with the paper's exact request counts "
        "(16407/1476/7460) replayed through the full client → proxy → "
        "delta-server → origin stack.  Paper: 94.8–97.1 % savings, 19–35×. "
        "The shape holds: all sites land in the 94–96 % band, the ordering "
        "(site 3 > site 2) matches, and the reduction factor is ~20×. "
        "Absolute direct-KB differs because our documents average ~44 KB of "
        "synthetic HTML rather than the sites' real content.",
        ["table2_site1", "table2_site2", "table2_site3"],
    ),
    (
        "Table III — base-file selection policies",
        "Five permutations of one class's request stream, randomized policy "
        "with the paper's K=8, p=0.2.  Paper shape reproduced: the "
        "randomized algorithm tracks the online optimum closely and never "
        "degrades, while first-response is erratic — catastrophic on "
        "permutations that open with an off-center document (the paper: "
        "'can be very bad, which is never the case for the randomized "
        "algorithm').  Absolute delta sizes differ (our class documents are "
        "~18 KB vs whatever the paper's site served).",
        ["table3_basefile", "table3_offline_reference"],
    ),
    (
        "Table IV — anonymization levels",
        "One ~82 KB personalized page, anonymized at the paper's (M, N) "
        "levels.  Paper: base shrinks 13–16 %, deltas grow only slightly "
        "(5224 → 6097–6520).  Measured: base shrinks 9–10 %, deltas grow "
        "~3 % — same 'minimal cost' conclusion, and the bench additionally "
        "asserts zero private tokens survive in any anonymized base.",
        ["table4_anonymization"],
    ),
    (
        "Fig. 2 — transparent deployment architecture",
        "Full-stack replay with byte-for-byte verification, plus the "
        "Section VI-B proxy-synergy claim: cachable (anonymized) base-files "
        "let a shared proxy absorb base distribution.",
        ["fig2_correctness", "fig2_proxy_synergy"],
    ),
    (
        "§VI-A — latency ratios",
        "Paper: L1/L2 ≈ 5 on high-bandwidth paths (slow-start rounds) and "
        "≈ 10 over a 56 Kb/s modem.  Both the analytic formulas and the TCP "
        "slow-start simulator land on the paper's numbers.",
        ["latency_model", "latency_sweep"],
    ),
    (
        "§VI-B — grouping",
        "Session-URL workload (every (user, page) pair is a distinct "
        "URL-request).  Paper: grouped 'after a couple of tries', 10–100× "
        "fewer classes than documents, no noticeable savings reduction vs "
        "classless.  Measured: 1.0 probes with page-level admin regexes "
        "(~3 with category-level ones), ~19 documents per class, and "
        "the class-based scheme actually *beats* classless on savings while "
        "storing ~10× fewer base-files.",
        ["grouping_efficiency", "grouping_savings_unchanged"],
    ),
    (
        "Grouping at scale — sketch/LSH candidate index",
        "Beyond the paper: Section III's search considers every same-server "
        "class when a URL's hint matches nothing, which is the scaling wall "
        "for session-heavy million-URL sites (each unmatched session URL "
        "pays an O(classes) search *and* mints a new singleton class).  The "
        "MinHash/LSH candidate index (`repro.core.sketch`, "
        "`GroupingConfig.policy=\"sketch\"`) sketches the request document "
        "once and narrows candidates to near-duplicate bases in O(1); the "
        "scan policy is kept as the parity baseline.  On the 100k-URL "
        "two-server workload the sketch arm classifies an order of "
        "magnitude faster, keeps the class count at the family count "
        "instead of exploding with churn singletons, and *gains* delta "
        "bytes saved (the scan rarely finds the right class among "
        "thousands within its probe budget).  Signatures persist with "
        "committed bases, so warm restarts skip re-sketching.",
        ["grouping_scale"],
    ),
    (
        "§VI-C — capacity and delta-generation cost",
        "Paper (P-III 866 MHz): 6–8 ms per delta on 50–60 KB base-files; "
        "plain Apache 175–180 req/s / 255 connections; with delta-server "
        "~130 req/s but 500+ sustainable connections.  Our pure-Python "
        "differ measures in the same range on modern hardware; the "
        "calibrated analytic model and the discrete-event simulation both "
        "reproduce the 175–180 vs ~130 split and the concurrency flip.",
        ["capacity_delta_cost", "capacity_comparison", "capacity_des_sweep"],
    ),
    (
        "§VI-C live — real-socket serving (repro.serve)",
        "The same comparison run for real: the delta-server engine behind "
        "an asyncio HTTP/1.1 listener (255-connection ceiling, worker-pool "
        "offload), a closed-loop load generator replaying one trace against "
        "plain and delta servers over loopback, every response verified "
        "byte-for-byte client-side.  Paper shape holds: plain wins raw "
        "req/s (its 1.35× gap is wider here — a pure-Python differ costs "
        "more relative to the origin render than Vdelta did relative to "
        "Apache), while the modeled 56K-modem hold time of each mode's "
        "measured mean on-wire response flips the connection-limited "
        "capacity in delta's favour — the 'sustains 500+ connections' "
        "headline.",
        ["serve_capacity"],
    ),
    (
        "Chaos soak — resilience of the live stack (repro.resilience)",
        "Not a paper experiment but a deployment-hardening gate for the "
        "Fig. 2 posture: if the delta-server sits in the request path next "
        "to the origin, it must not amplify an origin outage or a storage "
        "fault into wrong bytes or raw 500s.  The soak "
        "(`tests/integration/test_chaos_soak.py`, mirrored by the "
        "`chaos-smoke` CI job) drives the live server through six phases:\n"
        "\n"
        "1. **warm-up** — clean closed-loop replay; classes form, "
        "base-files\n   distribute, deltas verify byte-for-byte;\n"
        "2. **bit-rot** — one class's distributable base is corrupted in "
        "place;\n   the promotion-time checksum catches it on the next "
        "delta attempt, the\n   class is quarantined (fulls only), and no "
        "rotten delta ships;\n"
        "3. **chaos** — a seeded fault plan injects 10% origin 500s plus "
        "latency\n   spikes while clients replay with 4 retries: all 120 "
        "requests complete,\n   zero byte mismatches, zero 500s observed "
        "on either side of the wire,\n   and the quarantined class heals "
        "(fresh base re-adopted);\n"
        "4. **outage** — a 100% error burst opens the circuit breaker; "
        "requests\n   degrade to the class's base-file as a marked-stale "
        "200\n   (`X-Degraded: stale-base`) without touching the dead "
        "origin;\n"
        "5. **recovery** — faults stop, the cooldown passes, half-open "
        "probe\n   traffic recloses the breaker, and a full replay "
        "verifies clean;\n"
        "6. **drain** — the server closes gracefully with no connection "
        "leaked.\n"
        "\n"
        "Measured on the loopback testbed: the 10%-error phase completes "
        "with the server-side policy absorbing essentially every fault "
        "before clients see it (retry counters on the client side stay at "
        "or near zero with `--origin-retries 4`), which is the point — "
        "resilience belongs next to the origin, where the breaker state "
        "is shared across all clients.",
        [],
    ),
    (
        "§IV & §V — closed-form bounds",
        "The paper's worked examples reproduce to the printed precision: "
        "P_error ≤ 8·10⁻¹¹ for (N=1000, K=10); privacy bound 4.7·10⁻⁷ vs "
        "exact 2.4·10⁻⁸ for (p=0.01, N=10, M=5).  Monte-Carlo validators "
        "agree with the closed forms.",
        ["section4_bound", "section4_montecarlo", "section5_bounds"],
    ),
    (
        "Baselines — the introduction narrative",
        "Personalized session-URL traffic over an hourly-revised catalog. "
        "Plain proxy caching saves nothing on dynamic traffic.  Our HPP "
        "baseline is deliberately idealized (differ-derived chunk-level "
        "templates, zlib-compressed bindings — neither existed in 1997 "
        "HPP) and on per-request bytes it is competitive with class-based "
        "delta-encoding; the paper's 2–8× describes HPP as published.  The "
        "structural separation the reproduction confirms is server-side "
        "state — HPP keeps a template per (user, page) document, 4–6× the "
        "bytes of the shared class base-files — and drift adaptivity "
        "(rebases vs a fixed template).  An honest negative-space finding: "
        "with modern differs and compression, the bandwidth gap the paper "
        "reports over HPP narrows; the scalability argument is what "
        "survives.",
        ["baseline_comparison"],
    ),
    (
        "Delta kernel — streaming rewrite vs its own history",
        "Engineering gate rather than a paper table: the zero-copy "
        "streaming encode kernel against a frozen verbatim copy of the "
        "pre-rewrite encoder (`benchmarks/_legacy_vdelta.py`) on five "
        "document-pair regimes.  Gates: byte-identical wire everywhere, "
        "chunked encode→compressobj output identical to compressing the "
        "whole wire image, ≥ 2× encode throughput on the reference "
        "dynamic-page pair (measured 2.3–2.8×), and no pair regressing "
        "below the legacy kernel; plus the index gates — a base-file index "
        "in either geometry the engine builds (full 4/1, light 16/8) may "
        "hand the cyclic GC one container per *repeated* key, never one "
        "per key, and the full-geometry build stays within 1.25× of the "
        "legacy builder's.  This is the §VI-C delta-generation "
        "cost lever: faster encodes raise the delta-system capacity "
        "ceiling.",
        ["delta_kernel"],
    ),
    (
        "Ablations",
        "Design choices the paper calls out, swept: light-vs-full differ "
        "(≈5× cheaper, rank correlation ≈ 0.85), the three eviction "
        "variants (equivalent quality), the a·N popularity probe split "
        "(popularity-first wins under Zipf traffic), rebase-timeout (fewer "
        "rebases ↔ slightly better savings on stable content), and the "
        "storage budget (savings degrade gracefully as the base-file store "
        "is squeezed — the scalability trade the paper's scheme exists to "
        "improve).",
        [
            "ablation_light_vs_full",
            "ablation_eviction_worst",
            "ablation_eviction_periodic_random",
            "ablation_eviction_two_set",
            "ablation_popularity_split",
            "ablation_rebase_timeout",
            "ablation_storage_budget",
        ],
    ),
]

HEADER = """\
# EXPERIMENTS — paper vs measured

Every table and figure in the paper's evaluation, regenerated by
`pytest benchmarks/ --benchmark-only` (full scale; `REPRO_BENCH_SCALE`
scales traces down for iteration).  Raw tables below are copied verbatim
from `benchmarks/results/`; the bench that produced each one also asserts
the paper's qualitative claims, so a passing bench run *is* the
reproduction check.

Absolute byte counts differ from the paper where they must — the paper's
traces, documents, and testbed are proprietary/obsolete and are replaced
by documented synthetic equivalents (DESIGN.md §1).  What is reproduced is
the *shape*: who wins, by roughly what factor, and where the crossovers
fall.

"""


def main() -> None:
    parts = [HEADER]
    missing: list[str] = []
    for title, commentary, files in SECTIONS:
        parts.append(f"## {title}\n\n{commentary}\n")
        for name in files:
            path = RESULTS / f"{name}.txt"
            if not path.exists():
                missing.append(name)
                continue
            body = path.read_text().rstrip()
            parts.append(f"```\n{body}\n```\n")
    if missing:
        parts.append(
            "\n*Missing results (bench not yet run at this scale): "
            + ", ".join(missing)
            + "*\n"
        )
    OUTPUT.write_text("\n".join(parts), encoding="utf-8")
    print(f"wrote {OUTPUT} ({len(SECTIONS)} sections, {len(missing)} missing)")


if __name__ == "__main__":
    main()
