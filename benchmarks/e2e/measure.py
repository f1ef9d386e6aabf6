"""One workload, start to finish: boot, warm, measured phase, traced phase.

``run_workload`` returns the end-to-end metrics of the untraced measured
phase and, when asked, the per-layer ledger of a traced phase over the
same trace.  Validity guards raise :class:`harness.BenchmarkAbort`: a run
that trips one is abandoned, never reported.
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import spec
from child import site_spec
from driver import (
    Driver,
    Population,
    Sample,
    Tracer,
    TwinOrigin,
    poisson_offsets,
    population_rounds,
)
from harness import OUT_DIR, BenchmarkAbort, Observation, Stack, observe
from ledger import TracedPhase, per_layer, percentile
from repro.origin.site import SyntheticSite
from repro.workload.generator import WorkloadSpec, generate_workload
from repro.workload.trace import TraceRecord

#: requests the cold workload's one-shot trace holds: more than any run reaches
COLD_TRACE_REQUESTS = 20_000


@dataclass
class Result:
    workload: str
    end_to_end: dict[str, float]
    per_layer: dict[str, float] = field(default_factory=dict)
    #: printed beside the metrics: sample counts, phase lengths
    notes: dict[str, float] = field(default_factory=dict)
    #: of the phase the result reports: traced if there was one
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def count_failures(self, samples: list[Sample]) -> None:
        failed = [s for s in samples if not s.ok]
        self.attempted, self.failed = len(samples), len(failed)
        self.errors = [s.error for s in failed[:3]]

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted


@dataclass
class _Phase:
    samples: list[Sample]
    lags: list[float]
    before: Observation
    after: Observation
    #: (time, server-side CPU seconds) at the start and after each whole
    #: pass over the trace (closed loops only)
    marks: list[tuple[float, float]]


class Run:
    """State of one workload run: the trace, the live stack, its driver."""

    def __init__(self, workload: spec.Workload, seed: int, scale: float) -> None:
        self.workload = workload
        self.seed = seed
        self.scale = scale
        site = SyntheticSite(
            site_spec(spec.CHURN_EPOCH if workload.churn else spec.STEADY_EPOCH)
        )
        self.twin = TwinOrigin(site)
        requests = (
            spec.TRACE_REQUESTS if workload.warm else COLD_TRACE_REQUESTS
        )
        self.records: list[TraceRecord] = generate_workload(
            [site],
            WorkloadSpec(
                name=workload.name,
                requests=max(int(requests * scale), 60),
                users=workload.users,
                revisit_bias=spec.REVISIT_BIAS,
                session_urls=workload.session_urls,
                seed=seed,
            ),
        ).trace.records
        #: every page x three users drives each class's anonymization to READY
        self.sweep = [
            TraceRecord(0.0, user, site.url_for(page))
            for page in site.all_pages()
            for user in spec.WARM_USERS
        ]
        # Then each (user, url) pair of the trace once, so the client holds
        # a base ref for every request it will measure.
        pairs = list({(r.user, r.url): r for r in self.records}.values())
        self.warm_records = self.sweep + pairs
        self.stack: Stack | None = None
        self.driver: Driver | None = None
        self.population = Population()

    # -- set-up ----------------------------------------------------------------

    async def setup(self) -> float:
        """Boot the stack and warm it; returns the seconds that took."""
        started = perf_counter()
        self.stack = Stack.boot(self.workload)
        self.driver = Driver(self.stack.entry_ports, self.twin)
        self.population = Population()
        await self.driver.connect()
        if self.workload.warm:
            await self._prime([(self.population, r) for r in self.warm_records], None)
        return perf_counter() - started

    async def settle(self) -> None:
        """Cycle the trace, unmeasured, until the server's caches stop filling.

        Steady content lets the engine's light-estimate and encode caches
        keep warming for seconds after every class is READY; measuring
        on that ramp would make req_per_s a function of when the phase began.
        """
        if self.workload.steady:
            await self._prime(
                self.work(), perf_counter() + spec.SETTLE_SECONDS * self.scale
            )

    async def _prime(self, work, deadline: float | None) -> None:
        # The proxy's cache must start the measured phase cold, so its
        # server is primed on a direct connection.
        assert self.stack is not None and self.driver is not None
        driver = self.direct_driver() if self.stack.proxy else self.driver
        try:
            samples = await driver.closed_loop(work, deadline)
        finally:
            if driver is not self.driver:
                await driver.close()
        failed = [s for s in samples if not s.ok]
        if failed:
            raise BenchmarkAbort(f"warm-up failed: {failed[0].error}")

    def direct_driver(self) -> Driver:
        assert self.stack is not None
        return Driver([self.stack.servers[0].port], self.twin)

    async def teardown(self, *, keep_state: bool = False) -> None:
        if self.driver is not None:
            await self.driver.close()
            self.driver = None
        if self.stack is not None:
            stack, self.stack = self.stack, None
            stack.stop(keep_state=keep_state)

    # -- phases ----------------------------------------------------------------

    def work(self):
        """The measured phases' ``(population, record)`` stream."""
        if self.workload.populations > 1:
            return population_rounds(self.records, self.workload.populations)
        # closed loops stop at their deadline; a cold trace is never cycled
        records = itertools.cycle(self.records) if self.workload.warm else self.records
        return zip(itertools.repeat(self.population), records)

    async def phase(self, seconds: float, tracer: Tracer | None) -> _Phase:
        assert self.stack is not None and self.driver is not None
        self.driver.tracer = tracer
        scrapes = tracer is not None
        before = await observe(self.stack, scrapes=scrapes)
        lags: list[float] = []
        marks: list[tuple[float, float]] = []
        children = self.stack.children

        def mark() -> None:
            marks.append((perf_counter(), sum(c.cpu_seconds() for c in children)))

        mark()
        if self.workload.open_loop:
            count = int(spec.OPEN_RATE * seconds)
            offsets = poisson_offsets(count, spec.OPEN_RATE, self.seed)
            samples, lags = await self.driver.open_loop(self.work(), offsets)
        else:
            samples = await self.driver.closed_loop(
                self.work(), deadline=perf_counter() + seconds,
                mark_every=len(self.records), mark=mark,
            )
        after = await observe(self.stack, scrapes=scrapes)
        self.driver.tracer = None
        self._guard(samples, lags)
        return _Phase(samples, lags, before, after, marks)

    def _guard(self, samples: list[Sample], lags: list[float]) -> None:
        ok = [s for s in samples if s.ok]
        if len(ok) < 100 * self.scale:
            raise BenchmarkAbort(f"only {len(ok)} documents: too few to report on")
        # (a self-test phase can end before a cold class is READY to serve one)
        if len(ok) >= 100 and not any(s.is_delta for s in ok):
            raise BenchmarkAbort("no delta was served on a delta workload")
        if not self.workload.churn:
            epochs = {int(s.served_at // spec.STEADY_EPOCH) for s in ok}
            if len(epochs) > 1:
                raise BenchmarkAbort("a content epoch boundary fell inside the phase")
        # p90, not p99: one 100 ms freeze of this VM makes ten arrivals late
        # without the generator being the bottleneck (the ledger has p99)
        lag = percentile(lags, 90) * 1e3
        if lag > spec.MAX_SCHED_LAG_MS:
            raise BenchmarkAbort(f"open-loop generator ran {lag:.1f} ms late (p90)")


def _block_metrics(samples: list[Sample], wall: float, cpu: float) -> dict[str, float]:
    ok = [s for s in samples if s.ok]
    return {
        "req_per_s": len(ok) / wall,
        "doc_latency_p50_ms": percentile((s.latency for s in ok), 50) * 1e3,
        "wire_bytes_per_doc": sum(s.wire_in for s in ok) / max(len(ok), 1),
        "server_cpu_ms_per_req": cpu * 1e3 / max(len(ok), 1),
    }


def phase_metrics(run: Run, phase: _Phase) -> dict[str, float]:
    """One phase's client-side metrics; steady closed loops report the median pass.

    A pass is one whole cycle of the trace — the same work every time once
    the stack has settled — so the median pass shrugs off a disturbance
    that the phase's totals would absorb.  Other workloads (drifting
    work, or arrivals on a clock) report the whole phase.
    """
    samples, marks, size = phase.samples, phase.marks, len(run.records)
    blocks = [
        _block_metrics(
            samples[(i - 1) * size : i * size],
            marks[i][0] - marks[i - 1][0],
            marks[i][1] - marks[i - 1][1],
        )
        for i in range(1, len(marks))
    ]
    if not run.workload.steady or len(blocks) < 2:
        cpu = sum(phase.after.cpu[p] - phase.before.cpu[p] for p in phase.after.cpu)
        wall = max(s.end for s in samples) - min(s.due for s in samples)
        blocks = [_block_metrics(samples, wall, cpu)]
    return {
        name: statistics.median(block[name] for block in blocks) for name in blocks[0]
    }


async def _run_workload(
    workload: spec.Workload, seed: int, seconds: float, traced: bool,
    scale: float, corrupt_every: int,
) -> tuple[Result, TracedPhase | None]:
    run = Run(workload, seed, scale)
    setups: list[float] = []
    try:
        # Set-up time is the median of several whole boot+warm cycles; the
        # last stack is the one measured.  A traced run sets up once.
        repeats = 1 if traced or scale < 1 else spec.SETUP_REPEATS
        for i in range(repeats):
            setups.append(await run.setup())
            if i < repeats - 1:
                await run.teardown()
        await run.settle()
        run.driver.corrupt_every = corrupt_every
        measured = await run.phase(seconds / 2 if traced else seconds, None)
        result = Result(
            workload.name,
            end_to_end={
                **phase_metrics(run, measured),
                "server_peak_rss_mb": sum(c.peak_rss_mb() for c in run.stack.children),
                "setup_s": statistics.median(setups),
            },
            notes={"documents": sum(s.ok for s in measured.samples),
                   "measured_s": measured.after.at - measured.before.at,
                   "passes": len(measured.marks) - 1},
        )
        result.count_failures(measured.samples)
        if not traced:
            return result, None

        if not workload.warm:
            # a cold trace is only cold once: trace it on a fresh stack
            await run.teardown()
            await run.setup()
        tracer = Tracer(keep=max(40, int(Tracer.keep * scale)))
        phase = await run.phase(seconds, tracer)
        result.count_failures(phase.samples)
        direct = []
        if run.stack.proxy:
            # the same trace straight to the server: what a wait costs
            # without the proxy hop
            reference = run.direct_driver()
            reference.tracer = Tracer()
            direct = await reference.closed_loop(
                itertools.islice(run.work(), len(run.records))
            )
            await reference.close()
            direct = [s.detail for s in direct if s.ok]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.flush(OUT_DIR / f"trace_{workload.name}.jsonl")
        traced_phase = TracedPhase(
            workload=workload, samples=phase.samples, tracer=tracer,
            before=phase.before, after=phase.after,
            server_pids=[c.proc.pid for c in run.stack.servers],
            proxy_pid=run.stack.proxy.proc.pid if run.stack.proxy else None,
            lags=phase.lags,
            overhead_ratio=result.end_to_end["req_per_s"]
            / phase_metrics(run, phase)["req_per_s"],
            direct_details=direct, sweep=run.sweep,
            state_dir=run.stack.state_dir,
        )
        await run.teardown(keep_state=True)
        return result, traced_phase
    finally:
        await run.teardown()


def run_workload(
    workload: spec.Workload, seed: int, seconds: float, traced: bool,
    *, scale: float = 1.0, corrupt_every: int = 0,
) -> Result:
    """Run one workload; ``scale`` < 1 shrinks traces and set-up (self-test)."""
    result, traced_phase = asyncio.run(
        _run_workload(workload, seed, seconds, traced, scale, corrupt_every)
    )
    if traced_phase is not None:
        try:
            result.per_layer = per_layer(traced_phase)
        finally:
            if traced_phase.state_dir is not None:
                shutil.rmtree(traced_phase.state_dir, ignore_errors=True)
    return result
