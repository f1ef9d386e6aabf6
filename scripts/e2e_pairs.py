#!/usr/bin/env python3
"""Alternating same-seed parent/change pairs of ``benchmarks/e2e``.

    python3 scripts/e2e_pairs.py --pr 16 --parent HEAD [--pairs 10]
                                 [--workload NAME ...] [--seconds 10]
                                 [--raw runs.jsonl]

The parent is ``git archive <rev>`` unpacked into a temporary directory,
the change is the working tree this script sits in.  Per pair ``i`` and
workload, both sides run

    python3 benchmarks/e2e/run.py --workload W --seed 100+i --seconds S --trace 0

back to back — odd pairs parent first, even pairs change first — and the
last stdout line of each run (the benchmark's result object) is kept.  A
run that prints no result — ``run.py`` exits 3 with a ``run.py: run
abandoned: <reason>`` line on stderr when a validity guard trips — is kept
too, as *abandoned*, with its exit code and that line (or the last stderr
line of a crash).  With ``--raw`` every run is appended to that file at
once and a restarted script skips the runs already in it (ten pairs take an
hour), so an abandon is never quietly rerun.

Writes ``benchmarks/results/e2e_pr<NN>_pairs.md`` (per workload and
end-to-end metric of ``BENCHMARK.json``: each side's q1 / median / q3,
the move of the median, the metric's bound, the parent's own spread, the
same-seed wins, a verdict; then every run) and appends one line per
workload to ``benchmarks/results/e2e_history.jsonl``.  Abandoned runs are
listed on their own, counted per side, and left out of every quartile and
same-seed comparison.

Verdicts follow the simplicity-review guide: ``ok`` when the change's
median is no worse than the parent's by more than the bound;
``unresolved`` when the parent's own interquartile spread is wider than
the bound, unless every run of the change reads better than every run of
the parent; ``WORSE`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"
FIRST_SEED = 100
#: the stderr prefix of ``run.py``'s exit 3 (a validity guard tripped)
ABANDONED = "run.py: run abandoned:"


# -- the math ------------------------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, quartiles by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class Verdict:
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    #: change median against parent median, as a fraction of the parent's
    move: float
    #: parent (q3 - q1) / median: its own run-to-run spread
    spread: float
    wins: int
    ties: int
    #: same-seed pairs in which neither run was abandoned
    pairs: int
    verdict: str  # "ok" | "unresolved" | "WORSE"


def judge(
    parent: list[float | None], change: list[float | None], better: str, bound: float
) -> Verdict:
    """Compare same-seed runs of one metric on one workload.

    ``parent[i]`` and ``change[i]`` ran under the same seed; ``None`` is an
    abandoned run, which counts in no quartile and no same-seed pair.
    """
    sign = -1.0 if better == "higher" else 1.0  # sign * value: lower is better
    paired = [(a, b) for a, b in zip(parent, change) if a is not None and b is not None]
    parent = [v for v in parent if v is not None]
    change = [v for v in change if v is not None]
    p, c = quartiles(parent), quartiles(change)
    move = (c[1] - p[1]) / p[1] if p[1] else 0.0
    spread = (p[2] - p[0]) / abs(p[1]) if p[1] else 0.0
    if spread > bound:
        separated = max(sign * v for v in change) < min(sign * v for v in parent)
        verdict = "ok" if separated else "unresolved"
    else:
        verdict = "ok" if sign * move <= bound else "WORSE"
    return Verdict(
        parent=p,
        change=c,
        move=move,
        spread=spread,
        wins=sum(sign * b < sign * a for a, b in paired),
        ties=sum(a == b for a, b in paired),
        pairs=len(paired),
        verdict=verdict,
    )


# -- rendering -----------------------------------------------------------------


def _side(runs: list[dict], workload: str, side: str) -> list[dict]:
    """One side's runs of one workload, in pair order."""
    return sorted(
        (run for run in runs if run["workload"] == workload and run["side"] == side),
        key=lambda run: run["pair"],
    )


def _values(
    runs: list[dict], workload: str, side: str, metric: str
) -> list[float | None]:
    """One metric's readings on one side, in pair order; ``None`` if abandoned."""
    return [
        run["result"]["metrics"][metric]["value"] if run["result"] else None
        for run in _side(runs, workload, side)
    ]


def _workloads(runs: list[dict], manifest: dict) -> list[str]:
    """The workloads that were run, in the manifest's order."""
    ran = {run["workload"] for run in runs}
    return [w["name"] for w in manifest["workloads"] if w["name"] in ran]


def _failed(runs: list[dict], workload: str, side: str) -> tuple[int, int]:
    """Failed and attempted operations over one side's finished runs."""
    done = [r["result"] for r in _side(runs, workload, side) if r["result"]]
    return sum(r["failed"] for r in done), sum(r["attempted"] for r in done)


def _abandoned(runs: list[dict], workload: str, side: str) -> tuple[int, int]:
    """Abandoned runs and all runs on one side."""
    picked = _side(runs, workload, side)
    return sum(r["result"] is None for r in picked), len(picked)


def _more(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """Whether share ``b[0]/b[1]`` is larger than share ``a[0]/a[1]``."""
    return b[0] * max(a[1], 1) > a[0] * max(b[1], 1)


def table(runs: list[dict], manifest: dict) -> list[str]:
    """The markdown table: one row per (workload, end-to-end metric)."""
    lines = [
        "| workload | metric | parent q1 / med / q3 | change q1 / med / q3 | move "
        "| bound | parent IQR/med | change wins | n | verdict |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for workload in _workloads(runs, manifest):
        for metric in manifest["end_to_end"]:
            parent = _values(runs, workload, "parent", metric["name"])
            change = _values(runs, workload, "change", metric["name"])
            finished = [len(side) - side.count(None) for side in (parent, change)]
            done = f"{finished[0]}/{finished[1]}"
            if 0 in finished:
                lines.append(
                    f"| {workload} | {metric['name']} | | | | {metric['bound']:.0%} "
                    f"| | | {done} | unresolved |"
                )
                continue
            v = judge(parent, change, metric["better"], metric["bound"])
            ties = f" ({v.ties} ties)" if v.ties else ""
            lines.append(
                f"| {workload} | {metric['name']} "
                f"| {v.parent[0]:.3f} / {v.parent[1]:.3f} / {v.parent[2]:.3f} "
                f"| {v.change[0]:.3f} / {v.change[1]:.3f} / {v.change[2]:.3f} "
                f"| {v.move:+.1%} | {metric['bound']:.0%} | {v.spread:.1%} "
                f"| {v.wins}/{v.pairs}{ties} | {done} | {v.verdict} |"
            )
        # A larger share of failed operations is a regression whatever
        # the metrics read.
        parent = _failed(runs, workload, "parent")
        change = _failed(runs, workload, "change")
        lines.append(
            f"| {workload} | failed/attempted | {parent[0]}/{parent[1]} "
            f"| {change[0]}/{change[1]} "
            f"| | | | | | {'WORSE' if _more(parent, change) else 'ok'} |"
        )
    return lines


def run_list(runs: list[dict]) -> list[str]:
    """Every run made, in the order it ran."""
    lines = [
        "| pair | workload | side | seed | exit | failed/attempted | end-to-end metrics |",
        "|---|---|---|---|---|---|---|",
    ]
    for run in runs:
        result = run["result"]
        if result is None:
            ops, metrics = "", f"abandoned: {run['abandoned']}"
        else:
            ops = f"{result['failed']}/{result['attempted']}"
            metrics = ", ".join(
                f"{name} {entry['value']:.3f}" for name, entry in result["metrics"].items()
            )
        lines.append(
            f"| {run['pair']} | {run['workload']} | {run['side']} | {run['seed']} "
            f"| {run['exit']} | {ops} | {metrics} |"
        )
    return lines


def abandoned_list(runs: list[dict], manifest: dict) -> list[str]:
    """Abandoned/all runs per workload and side, then each abandoned run with
    the reason it gave.  A larger share of abandons on the change side is a
    regression whatever the metrics read."""
    lines = ["| workload | parent | change | verdict |", "|---|---|---|---|"]
    for workload in _workloads(runs, manifest):
        parent = _abandoned(runs, workload, "parent")
        change = _abandoned(runs, workload, "change")
        lines.append(
            f"| {workload} | {parent[0]}/{parent[1]} | {change[0]}/{change[1]} "
            f"| {'WORSE' if _more(parent, change) else 'ok'} |"
        )
    lines.append("")
    lines += [
        f"- pair {run['pair']} {run['workload']} {run['side']} (seed {run['seed']}, "
        f"exit {run['exit']}): {run['abandoned']}"
        for run in runs
        if run["result"] is None
    ] or ["No run was abandoned."]
    return lines


def history_lines(runs: list[dict], manifest: dict, pr: int, commit: str) -> list[str]:
    """One JSON line per workload: the change side's medians and IQRs."""
    lines = []
    for workload in _workloads(runs, manifest):
        medians, iqr = {}, {}
        for metric in manifest["end_to_end"]:
            values = _values(runs, workload, "change", metric["name"])
            values = [v for v in values if v is not None]
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            medians[metric["name"]] = round(median, 4)
            iqr[metric["name"]] = round(q3 - q1, 4)
        lines.append(json.dumps({
            "pr": pr, "commit": commit, "workload": workload,
            "medians": medians, "iqr": iqr,
        }))
    return lines


def report(runs: list[dict], manifest: dict, pr: int, parent: str, seconds: float) -> str:
    pairs = max(run["pair"] for run in runs)
    return "\n".join([
        f"# PR {pr} — `benchmarks/e2e` parent vs change, {pairs} alternating pairs",
        "",
        f"Generated by `scripts/e2e_pairs.py`.  Parent = `{parent}` (`git archive`"
        " into a temporary directory), change = the working tree; per pair and"
        " workload both sides ran `python3 benchmarks/e2e/run.py --workload W"
        f" --seed {FIRST_SEED}+i --seconds {seconds:g} --trace 0` back to back, odd"
        " pairs parent first, even pairs change first.  *move* = change median"
        " against parent median; *bound* = the metric's regression bound in"
        " `BENCHMARK.json`; *parent IQR/med* = the parent's own run-to-run"
        " spread; *change wins* = same-seed pairs in which the change read"
        " better; *n* = finished parent/change runs.  Verdict `ok`: the change's"
        " median is no worse than the parent's by more than the bound;"
        " `unresolved`: the parent's spread is wider than the bound and the"
        " sides overlap; `WORSE`: a regression.  An abandoned run (no result"
        " printed) counts in no quartile and no pair; a larger share of them on"
        " the change side is `WORSE`.",
        "",
        *table(runs, manifest),
        "",
        "## Abandoned runs",
        "",
        *abandoned_list(runs, manifest),
        "",
        "## Every run",
        "",
        *run_list(runs),
        "",
    ])


# -- running -------------------------------------------------------------------


def abandon_reason(stderr: str) -> str:
    """Why a run printed no result: ``run.py``'s abandon line, else the last
    line it wrote to stderr."""
    lines = stderr.strip().splitlines()
    for line in reversed(lines):
        if line.startswith(ABANDONED):
            return line[len(ABANDONED):].strip()
    return lines[-1].strip() if lines else "no output"


def run_once(
    checkout: Path, workload: str, seed: int, seconds: float
) -> tuple[int, dict | None, str | None]:
    """One benchmark run in ``checkout``: exit code, its result object, and
    the abandon reason when it printed no result."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    try:
        return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return done.returncode, None, abandon_reason(done.stderr)


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def main() -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", default="HEAD", help="git rev of the parent side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=float(manifest["run_seconds"]))
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: every workload")
    parser.add_argument("--raw", type=Path,
                        help="append each finished run here; skip runs already there")
    args = parser.parse_args()
    parent_rev = git("rev-parse", "--short", args.parent)
    commit = git("rev-parse", "--short", "HEAD") + ("+dirty" if git("status", "--porcelain") else "")
    runs: list[dict] = []
    if args.raw and args.raw.exists():
        runs = [json.loads(line) for line in args.raw.read_text().splitlines()]
    have = {(run["pair"], run["workload"], run["side"]) for run in runs}
    with tempfile.TemporaryDirectory(prefix="e2e-parent-") as scratch:
        archive = Path(scratch) / "parent.tar"
        git("archive", "-o", str(archive), parent_rev)
        with tarfile.open(archive) as tar:
            tar.extractall(scratch, filter="data")
        sides = {"parent": Path(scratch), "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for workload in args.workload or names:
                for side in order:
                    if (pair, workload, side) in have:
                        continue
                    seed = FIRST_SEED + pair
                    code, result, reason = run_once(sides[side], workload, seed, args.seconds)
                    runs.append({"pair": pair, "workload": workload, "side": side,
                                 "seed": seed, "exit": code, "result": result,
                                 "abandoned": reason})
                    if args.raw:
                        with open(args.raw, "a") as raw:
                            raw.write(json.dumps(runs[-1]) + "\n")
                    outcome = (f"abandoned: {reason}" if result is None else
                               f"failed {result['failed']}/{result['attempted']}")
                    print(f"pair {pair} {workload} {side}: exit {code}, {outcome}",
                          file=sys.stderr, flush=True)
    out = RESULTS / f"e2e_pr{args.pr:02d}_pairs.md"
    out.write_text(report(runs, manifest, args.pr, parent_rev, args.seconds))
    with open(RESULTS / "e2e_history.jsonl", "a") as history:
        for line in history_lines(runs, manifest, args.pr, commit):
            history.write(line + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    bad = [run for run in runs if run["exit"] or run["result"] is None
           or run["result"]["failed"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
