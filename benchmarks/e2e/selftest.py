"""Smoke test of the benchmark itself (``run.py --smoke``; not a tier-1 test).

Every workload at a tenth of its size must produce every metric name
exactly once, spans that nest and share request ids, and children that
shut down cleanly leaving no process, state directory or socket behind.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import spec
from harness import OUT_DIR
from measure import run_workload

ROOT = Path(__file__).resolve().parents[2]
SCALE = 0.1


def check_spans(path: Path) -> None:
    spans = {}
    for line in path.read_text().splitlines():
        span = json.loads(line)
        spans[span["id"]] = span
    assert spans, f"{path.name}: no spans"
    names = set()
    for span in spans.values():
        names.add(span["name"])
        assert span["end"] >= span["start"], span
        if span["parent"] is None:
            assert span["name"] == "doc", span
            continue
        parent = spans[span["parent"]]
        assert parent["request"] == span["request"], (span, parent)
        slack = 1e-6  # server stages are laid out from header durations
        assert parent["start"] - slack <= span["start"], (span, parent)
        assert span["end"] <= parent["end"] + slack, (span, parent)
    assert {"doc", "serialize", "wait", "reconstruct", "verify"} <= names, names
    assert any(name.startswith("server.") for name in names), names


def leftover_children() -> list[str]:
    me = str(os.getpid())
    found = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process went away while we looked
        if fields[1] == me and fields[0] != "Z":
            found.append(stat.parent.name)
    return found


def main() -> int:
    started = time.perf_counter()
    manifest = ROOT / "BENCHMARK.json"
    if manifest.exists():
        assert json.loads(manifest.read_text()) == spec.manifest(), (
            "BENCHMARK.json differs from spec.py: run.py --write-manifest"
        )
    e2e_names = [name for name, *_ in spec.END_TO_END]
    layer_names = [name for name, *_ in spec.PER_LAYER]
    assert len(set(e2e_names + layer_names)) == len(e2e_names + layer_names)
    for workload in spec.WORKLOADS:
        result = run_workload(workload, seed=3, seconds=0.8, traced=True, scale=SCALE)
        assert result.failed == 0, (workload.name, result.errors)
        assert sorted(result.end_to_end) == sorted(e2e_names), workload.name
        assert sorted(result.per_layer) == sorted(layer_names), workload.name
        assert all(value > 0 for value in result.end_to_end.values()), result.end_to_end
        check_spans(OUT_DIR / f"trace_{workload.name}.jsonl")
        assert not leftover_children(), f"{workload.name}: child processes remain"
        stale = [p.name for p in OUT_DIR.iterdir() if not p.name.startswith("trace_")]
        assert not stale, f"{workload.name}: left behind {stale}"
        print(f"selftest: {workload.name} ok "
              f"({result.attempted} documents traced)", flush=True)
    print(f"selftest: all {len(spec.WORKLOADS)} workloads ok "
          f"in {time.perf_counter() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
