"""Metrics and table rendering."""

from __future__ import annotations

from repro.metrics.collector import BandwidthReport, LatencySample, SizeSample
from repro.metrics.histogram import StreamingHistogram, nearest_rank_index
from repro.metrics.registry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    format_sample,
    histogram_lines,
)
from repro.metrics.report import fmt_factor, fmt_kb, fmt_pct, render_table
from repro.metrics.stats import (
    counter,
    family_lines,
    gauge,
    histogram,
    stats_dict,
    stats_lines,
)

__all__ = [
    "BandwidthReport",
    "LatencySample",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "SizeSample",
    "StreamingHistogram",
    "counter",
    "family_lines",
    "fmt_factor",
    "fmt_kb",
    "fmt_pct",
    "format_sample",
    "gauge",
    "histogram",
    "histogram_lines",
    "nearest_rank_index",
    "render_table",
    "stats_dict",
    "stats_lines",
]
