"""repro.metrics.stats: a stats dataclass is the declaration, one renderer."""

from collections import Counter
from dataclasses import dataclass

from repro.metrics import (
    LatencySample,
    counter,
    family_lines,
    gauge,
    histogram,
    stats_dict,
    stats_lines,
)


@dataclass(slots=True)
class DemoStats:
    started_at: float | None = None  # undeclared: health only, never exported
    requests: int = counter("requests seen")
    bypassed: int = counter(name="bypass")
    by_status: Counter = counter(name="responses_by_status", label="status")
    depth: int = gauge("queue depth")
    warm: bool = gauge(default=False)
    latencies: LatencySample = histogram(
        LatencySample, "request latency", name="latency_seconds"
    )


def test_every_declared_field_renders_from_zero():
    lines = stats_lines(DemoStats(), "repro_demo_")
    assert lines[:3] == [
        "# HELP repro_demo_requests_total requests seen",
        "# TYPE repro_demo_requests_total counter",
        "repro_demo_requests_total 0",
    ]
    # A pinned name replaces the field name; no help text, no HELP line.
    assert "# TYPE repro_demo_bypass_total counter" in lines
    assert "repro_demo_bypass_total 0" in lines
    assert not any("bypassed" in line for line in lines)
    # A labelled counter with no keys yet still declares its family.
    assert "# TYPE repro_demo_responses_by_status_total counter" in lines
    assert "repro_demo_warm 0" in lines
    assert 'repro_demo_latency_seconds_bucket{le="+Inf"} 0' in lines
    assert not any("started_at" in line for line in lines)


def test_values_labels_subset_and_computed_gauges():
    stats = DemoStats(requests=3, depth=2, warm=True)
    stats.by_status[404] += 1
    stats.by_status[200] += 2
    stats.latencies.add(0.25)
    lines = stats_lines(stats, "p_", gauges={"uptime_seconds": 1.5})
    assert "p_requests_total 3" in lines
    assert lines.index('p_responses_by_status_total{status="200"} 2') + 1 == (
        lines.index('p_responses_by_status_total{status="404"} 1')
    )
    assert "p_warm 1" in lines and "p_depth 2" in lines
    assert "p_latency_seconds_count 1" in lines
    assert lines[-2:] == ["# TYPE p_uptime_seconds gauge", "p_uptime_seconds 1.5"]
    only = stats_lines(stats, "p_", only=("depth",))
    assert only == ["# HELP p_depth queue depth", "# TYPE p_depth gauge", "p_depth 2"]


def test_stats_dict_is_json_ready_and_complete():
    stats = DemoStats(started_at=1.23456789, requests=3)
    stats.by_status[200] += 2
    snapshot = stats_dict(stats)
    assert set(snapshot) == {
        "started_at", "requests", "bypassed", "by_status", "depth", "warm",
        "latencies",
    }
    assert snapshot["started_at"] == 1.234568
    assert snapshot["by_status"] == {"200": 2}
    assert snapshot["latencies"]["count"] == 0


def test_family_lines_for_computed_values():
    assert family_lines(
        "gauge", "repro_state", {"open": 0, "closed": 1}, label="state"
    ) == [
        "# TYPE repro_state gauge",
        'repro_state{state="closed"} 1',
        'repro_state{state="open"} 0',
    ]
