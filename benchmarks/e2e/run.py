"""End-to-end benchmark of the delta-server stack, measured from the client side.

    python3 benchmarks/e2e/run.py                       every workload, both tables
    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                                                        one run; last stdout line is
                                                        the result as one JSON object
    python3 benchmarks/e2e/run.py --repeat-check        two sets of runs, compared
                                                        against the metrics' bounds
    python3 benchmarks/e2e/run.py --cross-check         driver vs LoadGenerator; a
                                                        corrupted byte must fail
    python3 benchmarks/e2e/run.py --smoke               selftest.py (<= 30 s)
    python3 benchmarks/e2e/run.py --write-manifest      BENCHMARK.json from spec.py

Boots the servers as child processes on loopback, replays a trace
generated from ``--seed``, verifies every reconstructed document, and
prints every metric by name with its unit.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402
from harness import BenchmarkAbort  # noqa: E402
from measure import Result, run_workload  # noqa: E402

E2E_UNITS = {name: unit for name, unit, _, _ in spec.END_TO_END}
LAYER_UNITS = {name: unit for name, unit, _ in spec.PER_LAYER}


def result_line(result: Result, traced: bool) -> str:
    """The contract's one-object result: e2e metrics untraced, per-layer traced."""
    values, units = (
        (result.per_layer, LAYER_UNITS) if traced else (result.end_to_end, E2E_UNITS)
    )
    return json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    })


def print_result(result: Result) -> None:
    print(f"\n== {result.workload} ==  (loopback only; servers are child processes)")
    print(f"  untraced phase: {result.notes['documents']:.0f} documents in "
          f"{result.notes['measured_s']:.1f} s, {result.notes['passes']:.0f} whole passes")
    print(f"  failed_share {result.failed_share:.6f} ({result.failed}/{result.attempted}"
          f" in the {'traced' if result.per_layer else 'untraced'} phase)")
    for error in result.errors:
        print(f"  failure: {error}")
    for name, unit in E2E_UNITS.items():
        print(f"  {name:<34}{result.end_to_end[name]:>14.4f} {unit}")
    if not result.per_layer:
        return
    print("  -- per-layer ledger (traced phase) --")
    for name, unit in LAYER_UNITS.items():
        print(f"  {name:<34}{result.per_layer[name]:>14.4f} {unit}")
    layer = result.per_layer
    print("  -- p50 budget (ms): serialize + shell + engine stages + hops "
          "+ reconstruct --")
    print(f"  attributed {layer['budget.attributed_ms_p50']:.3f}  "
          f"unattributed {layer['budget.unattributed_ms_p50']:.3f}  "
          f"(doc_latency_p50_ms of the traced phase = their sum; base fetches, "
          f"the twin-origin verify and event-loop hand-offs are the remainder)")


def run_all(seed: int, seconds: float, traced: bool) -> list[Result]:
    results = []
    for workload in spec.WORKLOADS:
        result = run_workload(workload, seed, seconds, traced)
        print_result(result)
        results.append(result)
    return results


def repeat_check(seed: int, seconds: float) -> int:
    """Two sets of runs of the same code must agree within the bounds."""
    sets = [run_all(seed, seconds, traced=False) for _ in range(2)]
    print("\n== repeat check: set 2 against set 1 ==")
    worst = 0
    for first, second in zip(*sets):
        for name, _, better, bound in spec.END_TO_END:
            a, b = first.end_to_end[name], second.end_to_end[name]
            change = (b - a) / a
            worse = -change if better == "higher" else change
            verdict = "ok" if worse <= bound else "OUT OF BOUND"
            worst += worse > bound
            print(f"  {first.workload:<20}{name:<24}{a:>12.4f}{b:>12.4f}"
                  f"{change:>+9.2%}  bound {bound:.0%}  {verdict}")
        if first.failed or second.failed:
            worst += 1
            print(f"  {first.workload:<20}failed_share must stay 0")
    return 1 if worst else 0


def cross_check(seed: int, seconds: float) -> int:
    """The driver agrees with LoadGenerator, and its verifier is live."""
    from crosscheck import loadgen_req_per_s

    workload = spec.WORKLOADS_BY_NAME["steady_direct"]
    ours = run_workload(workload, seed, seconds, traced=False)
    theirs = loadgen_req_per_s(workload, seed, seconds)
    gap = abs(ours.end_to_end["req_per_s"] - theirs) / theirs
    print(f"driver {ours.end_to_end['req_per_s']:.1f} req/s, "
          f"LoadGenerator {theirs:.1f} req/s, gap {gap:.1%} (limit 10%)")
    corrupted = run_workload(workload, seed, min(seconds, 2.0), False, corrupt_every=50)
    print(f"with one byte flipped in every 50th response: "
          f"failed_share {corrupted.failed_share:.4f} (must be > 0)")
    return 0 if gap <= 0.10 and corrupted.failed > 0 and ours.failed == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--cross-check", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    args = parser.parse_args(argv)

    if args.write_manifest:
        path = ROOT / "BENCHMARK.json"
        path.write_text(json.dumps(spec.manifest(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    if args.smoke:
        import selftest

        return selftest.main()
    try:
        if args.repeat_check:
            return repeat_check(args.seed, args.seconds)
        if args.cross_check:
            return cross_check(args.seed, args.seconds)
        if args.workload is None:
            results = run_all(args.seed, args.seconds, traced=args.trace != 0)
            return 1 if any(r.failed for r in results) else 0
        traced = bool(args.trace)
        result = run_workload(
            spec.WORKLOADS_BY_NAME[args.workload], args.seed, args.seconds, traced
        )
    except BenchmarkAbort as abort:
        print(f"run.py: run abandoned: {abort}", file=sys.stderr)
        return 3
    print_result(result)
    print(result_line(result, traced))
    return 0


if __name__ == "__main__":
    sys.exit(main())
