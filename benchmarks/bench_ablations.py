"""Ablations over the design choices the paper calls out.

* footnote 2 / Section III: the *light* differ for grouping estimates
  (larger chunks, forward-only) — how much cheaper, how much less precise?
* footnote 3 / Section IV: eviction variants for the randomized base-file
  store (worst, periodic-random, two-set);
* Section III: the ``a·N`` popularity/random probe split;
* Section IV: the rebase-timeout that throttles group-rebases.
"""

import random
import time

import pytest
from _util import emit, once, scaled

from repro.core import AnonymizationConfig, DeltaServerConfig
from repro.core.base_file import RandomizedPolicy
from repro.core.config import BaseFileConfig, EvictionVariant, GroupingConfig
from repro.delta import LightEstimator, VdeltaEncoder, delta_size
from repro.metrics import fmt_pct, render_table
from repro.origin import SiteSpec, SyntheticSite, profile_for
from repro.simulation import Simulation, SimulationConfig
from repro.workload import WorkloadSpec, generate_workload


def document_pool(count: int = 40) -> list[bytes]:
    site = SyntheticSite(
        SiteSpec(
            name="www.abl.example",
            categories=("news",),
            products_per_category=2,
            header_bytes=2500,
            skeleton_bytes=9000,
            detail_bytes=5000,
        )
    )
    rng = random.Random(7)
    pages = site.all_pages()
    return [
        site.render(
            pages[0] if rng.random() < 0.8 else pages[1],
            rng.uniform(0, 7200),
            user_id=f"u{rng.randrange(10)}",
            profile=profile_for(f"u{rng.randrange(10)}"),
        )
        for _ in range(count)
    ]


def bench_ablation_light_vs_full(benchmark):
    """The light estimator: cost vs fidelity against the full differ."""
    docs = document_pool(12)
    base = docs[0]
    estimator = LightEstimator()
    encoder = VdeltaEncoder()
    light_index = estimator.index(base)
    full_index = encoder.index(base)

    def light_all():
        return [estimator.estimate_with_index(light_index, d) for d in docs[1:]]

    t0 = time.perf_counter()
    light_sizes = light_all()
    light_ms = (time.perf_counter() - t0) * 1000
    t0 = time.perf_counter()
    from repro.delta.codec import encoded_size

    full_sizes = [
        encoded_size(encoder.encode_with_index(full_index, d).instructions, len(base))
        for d in docs[1:]
    ]
    full_ms = (time.perf_counter() - t0) * 1000

    # Spearman rank correlation: does the light estimate order candidates
    # like the full differ does?  (grouping needs ordering + a threshold)
    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        rank = [0] * len(values)
        for position, index in enumerate(order):
            rank[index] = position
        return rank

    lr, fr = ranks(light_sizes), ranks(full_sizes)
    n = len(lr)
    spearman = 1 - 6 * sum((a - b) ** 2 for a, b in zip(lr, fr)) / (n * (n * n - 1))
    emit(
        "ablation_light_vs_full",
        render_table(
            ["differ", "total time (11 docs)", "mean estimate"],
            [
                ["full (4-byte chunks, fwd+bwd)", f"{full_ms:.1f} ms",
                 f"{sum(full_sizes) / len(full_sizes):.0f} B"],
                ["light (16-byte chunks, fwd)", f"{light_ms:.1f} ms",
                 f"{sum(light_sizes) / len(light_sizes):.0f} B"],
            ],
            title="footnote 2: light vs full differ for grouping estimates",
        )
        + f"\nSpearman rank correlation: {spearman:.2f} "
        f"(speedup {full_ms / max(light_ms, 1e-9):.1f}x)",
    )
    assert light_ms < full_ms  # the whole point of the light variant
    assert spearman > 0.5  # ordering preserved well enough for grouping
    for light, full in zip(light_sizes, full_sizes):
        assert light >= full * 0.6  # estimates upper-bound-ish, never wild

    benchmark(lambda: estimator.estimate_with_index(light_index, docs[1]))


@pytest.mark.parametrize("variant", list(EvictionVariant), ids=lambda v: v.value)
def bench_ablation_eviction_variant(benchmark, variant):
    """footnote 3: eviction variants pick comparably good base-files."""
    docs = document_pool(60)
    estimator = LightEstimator()

    def light(base: bytes, target: bytes) -> int:
        return estimator.estimate(base, target)

    def run():
        config = BaseFileConfig(
            sample_probability=0.4,
            capacity=6,
            eviction=variant,
            random_evict_period=3,
        )
        policy = RandomizedPolicy(config, light, random.Random(5))
        for doc in docs:
            policy.observe(doc)
        best = policy.current()
        return sum(light(best, d) for d in docs) / len(docs)

    mean_delta = once(benchmark, run)
    emit(
        f"ablation_eviction_{variant.value}",
        f"eviction={variant.value}: mean light-delta of chosen base over the "
        f"pool = {mean_delta:.0f} bytes",
    )
    # all variants should be in the same quality ballpark
    assert mean_delta < 6000


def bench_ablation_popularity_split(benchmark):
    """Section III: the a·N popularity/random probe split.

    Scenario where the split matters: many classes share one hint-part and
    the probe budget N is tight.  Requests are Zipf-skewed toward popular
    products, so probing popular classes first (a -> 1) finds the matching
    class within budget far more often than probing at random (a = 0) —
    the rationale for "first attempts to group the request into classes
    with many members".
    """
    site = SyntheticSite(
        SiteSpec(
            name="www.split.example",
            categories=("catalog",),
            products_per_category=12,
            header_bytes=1500,
            skeleton_bytes=2000,   # small shared part ...
            detail_bytes=12000,    # ... big product part: products do NOT group
        )
    )
    pages = site.all_pages()

    def run_split(popular_fraction: float):
        from repro.core.grouping import Grouper
        from repro.core.classes import DocumentClass
        from repro.core.sketch import MinHashSketcher
        from repro.core.base_file import FirstResponsePolicy
        from repro.url.rules import RuleBook
        from repro.delta.vdelta import VdeltaEncoder

        estimator = LightEstimator()
        encoder = VdeltaEncoder()
        counter = iter(range(1, 10_000))

        def factory(server, hint):
            return DocumentClass(
                class_id=f"c{next(counter)}",
                server=server,
                hint=hint,
                anonymization=AnonymizationConfig(enabled=False),
                policy=FirstResponsePolicy(),
                encoder=encoder,
                estimator=estimator,
            )

        grouper = Grouper(
            config=GroupingConfig(
                max_tries=3, popular_fraction=popular_fraction, match_threshold=0.3
            ),
            rulebook=RuleBook(),
            estimator=estimator,
            class_factory=factory,
            sketcher=MinHashSketcher(),
            seed=11,
        )
        from repro.workload import ZipfSampler

        rng = random.Random(17)
        sampler = ZipfSampler(len(pages), alpha=1.3, rng=rng)
        # Seed 12 classes, one per product, with Zipf-skewed popularity
        # (page i popular in proportion to its request probability).
        for i, page in enumerate(pages):
            doc = site.render(page, 0.0)
            cls, created = grouper.classify(site.url_for(page), doc)
            if created:
                cls.adopt_base(doc, owner_user=None, now=0.0)
            cls.stats.hits += int(sampler.probability(i) * 400)
        # New session-URLs drawn from the same Zipf: each should match its
        # product's existing class within the N=3 probe budget.
        matched_before = grouper.stats.matched
        for trial in range(60):
            page = pages[sampler.sample()]
            url = site.url_for(page) + f"&sid=u{trial}"
            doc = site.render(page, 0.0, user_id=f"u{trial}")
            cls, created = grouper.classify(url, doc)
            if created:
                cls.adopt_base(doc, owner_user=None, now=0.0)
        return grouper.stats.matched - matched_before

    def run_all():
        return {a: run_split(a) for a in (0.0, 0.3, 1.0)}

    results = once(benchmark, run_all)
    rows = [[f"a = {a}", f"{matched}/60"] for a, matched in results.items()]
    emit(
        "ablation_popularity_split",
        render_table(
            ["probe split", "matches found (budget N=3 of 12 classes)"],
            rows,
            title="Section III: popularity-first probe ordering",
        ),
    )
    # Zipf-skewed requests: popularity-first probing beats random probing.
    assert results[1.0] >= results[0.0]


def bench_ablation_rebase_timeout(benchmark):
    """Section IV: the rebase-timeout throttles client-visible churn."""

    def run_timeout(timeout: float):
        site = SyntheticSite(
            SiteSpec(
                name="www.rb.example",
                categories=("news",),
                products_per_category=3,
                dynamic_bytes=2200,
            )
        )
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="rb",
                requests=scaled(1500),
                users=10,
                duration=3 * 3600.0,
                revisit_bias=0.75,
            ),
        )
        config = SimulationConfig(
            verify=False,
            delta=DeltaServerConfig(
                base_file=BaseFileConfig(rebase_timeout=timeout),
                anonymization=AnonymizationConfig(documents=3, min_count=1),
            ),
        )
        return Simulation([site], config).run(workload)

    def run_all():
        return {t: run_timeout(t) for t in (60.0, 900.0, 1e9)}

    results = once(benchmark, run_all)
    rows = [
        [
            "60 s" if t == 60.0 else ("900 s" if t == 900.0 else "never"),
            report.group_rebases,
            fmt_pct(report.bandwidth.savings),
        ]
        for t, report in results.items()
    ]
    emit(
        "ablation_rebase_timeout",
        render_table(
            ["rebase timeout", "group rebases", "savings"],
            rows,
            title="Section IV: rebase-timeout ablation",
        ),
    )
    # shorter timeout => more rebases
    assert results[60.0].group_rebases >= results[900.0].group_rebases
    assert results[1e9].group_rebases == 0


def bench_ablation_storage_budget(benchmark):
    """Storage budget: how much base-file storage does savings need?

    The paper's motivation is storage scalability; this sweep measures the
    bandwidth cost of squeezing the base-file store.  With a generous
    budget nothing is released; tight budgets force cold classes to drop
    their bases and re-adopt, converting storage pressure into extra full
    responses.
    """

    def run_budget(budget):
        site = SyntheticSite(
            SiteSpec(
                name="www.budget.example",
                categories=("laptops", "desktops"),
                products_per_category=4,
                dynamic_bytes=2200,
            )
        )
        workload = generate_workload(
            [site],
            WorkloadSpec(
                name="budget",
                requests=scaled(1200),
                users=12,
                duration=2 * 3600.0,
                revisit_bias=0.7,
            ),
        )
        config = SimulationConfig(
            verify=False,
            delta=DeltaServerConfig(
                anonymization=AnonymizationConfig(documents=3, min_count=1),
                storage_budget_bytes=budget,
            ),
        )
        simulation = Simulation([site], config)
        report = simulation.run(workload)
        used = simulation.server.storage.total_bytes(simulation.server.grouper.classes)
        releases = simulation.server.storage.stats.base_releases
        return report, used, releases

    def run_all():
        return {label: run_budget(budget) for label, budget in (
            ("unlimited", None),
            ("300 KB", 300_000),
            ("120 KB", 120_000),
            ("60 KB", 60_000),
        )}

    results = once(benchmark, run_all)
    rows = [
        [label, f"{used // 1024} KB", releases, fmt_pct(report.bandwidth.savings)]
        for label, (report, used, releases) in results.items()
    ]
    emit(
        "ablation_storage_budget",
        render_table(
            ["budget", "base storage used", "base releases", "savings"],
            rows,
            title="storage budget vs bandwidth savings",
        ),
    )
    unlimited = results["unlimited"][0].bandwidth.savings
    tight = results["60 KB"][0].bandwidth.savings
    assert unlimited >= tight  # squeezing storage can only cost savings
    assert results["unlimited"][2] == 0
    assert results["60 KB"][1] <= 60_000
