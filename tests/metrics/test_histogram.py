"""Tests for the bounded streaming histogram and the metrics registry."""

import math

import pytest

from repro.metrics.histogram import (
    DEFAULT_RESERVOIR_SIZE,
    StreamingHistogram,
    log_spaced_bounds,
    nearest_rank_index,
)
from repro.metrics.registry import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    format_sample,
    histogram_lines,
)


class TestNearestRankIndex:
    def test_textbook_cases(self):
        # ceil(n*q/100) - 1 on 0-based indexes
        assert nearest_rank_index(2, 50) == 0
        assert nearest_rank_index(2, 100) == 1
        assert nearest_rank_index(1, 50) == 0
        assert nearest_rank_index(1, 100) == 0
        assert nearest_rank_index(100, 50) == 49
        assert nearest_rank_index(100, 99) == 98
        assert nearest_rank_index(100, 100) == 99

    def test_clamping(self):
        assert nearest_rank_index(0, 50) == 0
        assert nearest_rank_index(5, 0) == 0
        assert nearest_rank_index(5, 200) == 4


class TestLogSpacedBounds:
    def test_ladder_covers_range(self):
        bounds = log_spaced_bounds(1e-3, 1e3, 5)
        assert bounds[0] == 1e-3
        assert bounds[-1] >= 1e3
        # 6 decades at 5 buckets/decade, plus endpoints: ~31 bounds
        assert 28 <= len(bounds) <= 34
        growth = bounds[1] / bounds[0]
        assert growth == pytest.approx(10 ** 0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            log_spaced_bounds(0, 10, 5)
        with pytest.raises(ValueError):
            log_spaced_bounds(10, 10, 5)
        with pytest.raises(ValueError):
            log_spaced_bounds(1, 10, 0)


class TestStreamingHistogramExact:
    """While the population fits the reservoir, percentiles are exact."""

    def test_empty(self):
        hist = StreamingHistogram()
        assert hist.count == 0
        assert hist.mean == 0.0
        assert hist.min == 0.0
        assert hist.max == 0.0
        assert hist.percentile(50) == 0.0

    def test_small_n_exact(self):
        hist = StreamingHistogram()
        for v in (0.5, 0.1, 0.9, 0.3):
            hist.add(v)
        assert hist.exact
        assert hist.percentile(0) == 0.1
        assert hist.percentile(50) == 0.3
        assert hist.percentile(100) == 0.9
        assert hist.mean == pytest.approx(0.45)
        assert hist.min == 0.1
        assert hist.max == 0.9
        assert hist.sum == pytest.approx(1.8)

    def test_two_values_median_is_lower(self):
        hist = StreamingHistogram(low=0.5, high=100.0)
        hist.add(1.0)
        hist.add(2.0)
        assert hist.percentile(50) == 1.0


class TestStreamingHistogramBounded:
    def test_storage_capped(self):
        hist = StreamingHistogram(reservoir_size=64)
        buckets_before = hist.bucket_count
        for i in range(5_000):
            hist.add((i % 100 + 1) * 1e-3)
        assert hist.count == 5_000
        assert hist.stored_samples <= 64
        assert not hist.exact
        assert hist.bucket_count == buckets_before  # ladder is fixed at init

    def test_bucket_percentiles_within_spacing(self):
        """Past the reservoir, percentiles come from the bucket ladder and
        must stay within one bucket-spacing factor of truth."""
        hist = StreamingHistogram(low=1e-4, high=10.0, reservoir_size=50)
        values = [(i % 1000 + 1) * 1e-3 for i in range(10_000)]  # 1ms..1s
        for v in values:
            hist.add(v)
        truth = sorted(values)
        spacing = 10 ** (1 / 5)  # one bucket width
        for q in (50, 90, 99):
            exact = truth[nearest_rank_index(len(truth), q)]
            approx = hist.percentile(q)
            assert exact / spacing <= approx <= exact * spacing
        # Extremes clamp to observed min/max.
        assert hist.percentile(0) >= hist.min
        assert hist.percentile(100) <= hist.max

    def test_under_and_overflow_buckets(self):
        hist = StreamingHistogram(low=1.0, high=10.0, reservoir_size=2)
        for v in (0.01, 0.02, 5.0, 500.0, 600.0):
            hist.add(v)
        assert hist.count == 5
        pairs = hist.cumulative_buckets()
        assert pairs[-1] == (math.inf, 5)
        # Cumulative counts are monotone and end at count.
        cumulative = [c for _, c in pairs]
        assert cumulative == sorted(cumulative)

    def test_reproducible_reservoir(self):
        a = StreamingHistogram(reservoir_size=16)
        b = StreamingHistogram(reservoir_size=16)
        for i in range(1_000):
            a.add(i * 1e-3)
            b.add(i * 1e-3)
        assert a.percentile(50) == b.percentile(50)
        assert a.snapshot() == b.snapshot()

    def test_snapshot_keys(self):
        hist = StreamingHistogram()
        hist.add(0.25)
        snap = hist.snapshot()
        assert snap["count"] == 1
        assert snap["p50"] == pytest.approx(0.25)
        assert set(snap) == {"count", "sum", "mean", "min", "max", "p50", "p90", "p99"}

    def test_default_reservoir_size(self):
        assert StreamingHistogram().reservoir_size == DEFAULT_RESERVOIR_SIZE


class TestExposition:
    def test_format_sample(self):
        assert format_sample("repro_x_total", (), 3.0) == "repro_x_total 3"
        line = format_sample("repro_x_total", (("stage", "encode"),), 1.5)
        assert line == 'repro_x_total{stage="encode"} 1.5'

    def test_format_sample_escapes_labels(self):
        line = format_sample("m", (("p", 'a"b\\c\nd'),), 1)
        assert line == 'm{p="a\\"b\\\\c\\nd"} 1'

    def test_histogram_lines_triplet(self):
        hist = StreamingHistogram(low=0.001, high=1.0)
        hist.add(0.25)
        hist.add(0.5)
        lines = histogram_lines("repro_lat_seconds", hist)
        assert lines[-2] == "repro_lat_seconds_sum 0.75"
        assert lines[-1] == "repro_lat_seconds_count 2"
        assert 'repro_lat_seconds_bucket{le="+Inf"} 2' == lines[-3]
        # Buckets are cumulative and monotone.
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines[:-2]]
        assert counts == sorted(counts)


class TestMetricsRegistry:
    def test_counters(self):
        registry = MetricsRegistry()
        registry.inc("requests_total")
        registry.inc("requests_total", 2)
        registry.inc("requests_total", labels={"mode": "delta"})
        assert registry.counter_value("requests_total") == 3
        assert registry.counter_value("requests_total", {"mode": "delta"}) == 1
        assert registry.counter_value("missing_total") == 0

    def test_observe_picks_bounds_by_suffix(self):
        registry = MetricsRegistry()
        registry.observe("stage_seconds", 0.01, {"stage": "encode"})
        registry.observe("body_bytes", 4096)
        assert registry.histogram("stage_seconds", {"stage": "encode"}).count == 1
        assert registry.histogram("body_bytes").count == 1
        assert registry.histogram("stage_seconds") is None  # labels distinguish
        assert registry.histogram_names() == ["body_bytes", "stage_seconds"]

    def test_timer_records(self):
        registry = MetricsRegistry()
        ticks = iter([10.0, 10.25])
        with registry.time("stage_seconds", {"stage": "x"}, clock=lambda: next(ticks)):
            pass
        hist = registry.histogram("stage_seconds", {"stage": "x"})
        assert hist.count == 1
        assert hist.sum == pytest.approx(0.25)

    def test_render_exposition_format(self):
        registry = MetricsRegistry()
        registry.inc("requests_total", help="requests handled")
        registry.observe("stage_seconds", 0.02, {"stage": "encode"})
        lines = registry.lines()
        assert "# HELP repro_requests_total requests handled" in lines
        assert "# TYPE repro_requests_total counter" in lines
        assert "repro_requests_total 1" in lines
        assert "# TYPE repro_stage_seconds histogram" in lines
        assert 'repro_stage_seconds_bucket{stage="encode",le="+Inf"} 1' in lines
        assert 'repro_stage_seconds_count{stage="encode"} 1' in lines

    def test_content_type_constant(self):
        assert PROMETHEUS_CONTENT_TYPE.startswith("text/plain; version=0.0.4")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.inc("hits_total", labels={"cls": "a"})
        registry.observe("stage_seconds", 0.1, {"stage": "encode"})
        snap = registry.snapshot()
        assert snap["counters"]["hits_total"]["cls=a"] == 1
        assert snap["histograms"]["stage_seconds"]["stage=encode"]["count"] == 1
