"""``steady_direct`` replayed by ``repro.serve.LoadGenerator`` instead of the driver.

The driver is new code measuring old code; this is the check that it is
not measuring itself.  Same stack, same warm-up, same trace, same two
connections — only the client differs.
"""

from __future__ import annotations

import asyncio
import statistics

import spec
from measure import Run
from repro.serve import LoadGenConfig, LoadGenerator
from repro.workload.trace import Trace


async def _loadgen_req_per_s(workload: spec.Workload, seed: int, seconds: float) -> float:
    run = Run(workload, seed, 1.0)
    try:
        await run.setup()
        await run.settle()
        generator = LoadGenerator(LoadGenConfig(
            port=run.stack.entry_ports[0], concurrency=spec.CONNECTIONS
        ))
        # LoadGenerator keeps its own client state: one untimed pass gives
        # it the base-files the driver's warm-up gave the driver.
        await generator.run(Trace("prime", run.records))
        rates = []
        deadline = asyncio.get_running_loop().time() + seconds
        while asyncio.get_running_loop().time() < deadline:
            report = await generator.run(Trace("crosscheck", run.records))
            if report.completed != len(run.records) or report.verify_failures:
                raise RuntimeError(f"LoadGenerator run was not clean:\n{report.render()}")
            rates.append(report.rps)
        return statistics.median(rates)
    finally:
        await run.teardown()


def loadgen_req_per_s(workload: spec.Workload, seed: int, seconds: float) -> float:
    return asyncio.run(_loadgen_req_per_s(workload, seed, seconds))
