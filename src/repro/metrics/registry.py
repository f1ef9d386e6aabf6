"""Named counters and histograms with Prometheus text exposition.

What a ``*Stats`` dataclass field (:mod:`repro.metrics.stats`, where a
plain count is declared) cannot hold: timings and counts whose label
values are only known at run time.  The engine, the origin resilience
policy, and the HTTP front-end all record into one
:class:`MetricsRegistry`, and ``GET /__metrics__`` renders it in the
Prometheus text exposition format (``text/plain; version=0.0.4``) so any
standard scraper — or the CI smoke job's line checker — can consume it.

Two metric families:

* **counters** — monotonically increasing floats keyed by
  ``(name, labels)``; rendered as ``repro_<name>{label="v"} value``.
* **histograms** — :class:`~repro.metrics.histogram.StreamingHistogram`
  instances (bounded: log-spaced buckets + reservoir), rendered as the
  standard ``_bucket``/``_sum``/``_count`` triplet with cumulative
  ``le`` buckets ending at ``+Inf``.

Histogram bounds are picked from the metric name suffix: ``*_seconds``
gets a 10µs..1000s ladder, ``*_bytes`` a 1B..1GiB ladder.  The registry
is thread-safe (the engine and resilience policy record from executor
worker threads while the event loop renders).
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Mapping

from repro.metrics.histogram import StreamingHistogram

__all__ = [
    "MetricsRegistry",
    "family_header",
    "format_sample",
    "histogram_lines",
    "PROMETHEUS_CONTENT_TYPE",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: metric name prefix for everything this repository emits
NAMESPACE = "repro"

LabelItems = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, str] | None) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    value = float(value)
    if value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(name: str, labels: LabelItems, value: float) -> str:
    """One exposition line: ``name{label="v",...} value``."""
    if labels:
        rendered = ",".join(
            f'{key}="{_escape_label(val)}"' for key, val in labels
        )
        return f"{name}{{{rendered}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


def family_header(name: str, kind: str, help: str = "") -> list[str]:
    """The ``# HELP`` (when there is text) and ``# TYPE`` lines of a family."""
    header = [f"# HELP {name} {help}"] if help else []
    header.append(f"# TYPE {name} {kind}")
    return header


def histogram_lines(
    name: str, histogram: StreamingHistogram, labels: LabelItems = ()
) -> list[str]:
    """Standard Prometheus histogram triplet for one (name, labels) series."""
    lines = []
    for bound, cumulative in histogram.cumulative_buckets():
        le = ("+Inf",) if bound == math.inf else (f"{bound:.9g}",)
        bucket_labels = labels + (("le", le[0]),)
        lines.append(format_sample(f"{name}_bucket", bucket_labels, cumulative))
    lines.append(format_sample(f"{name}_sum", labels, histogram.sum))
    lines.append(format_sample(f"{name}_count", labels, histogram.count))
    return lines


def default_histogram_for(name: str) -> StreamingHistogram:
    """Bounds chosen by unit suffix (`*_seconds` vs `*_bytes`)."""
    if name.endswith("_seconds"):
        return StreamingHistogram(low=1e-5, high=1e3)
    if name.endswith("_bytes"):
        return StreamingHistogram(low=1.0, high=float(1 << 30))
    return StreamingHistogram(low=1e-6, high=1e6)


class MetricsRegistry:
    """Thread-safe named counters + bounded histograms."""

    def __init__(self, namespace: str = NAMESPACE) -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._counters: dict[str, dict[LabelItems, float]] = {}
        self._histograms: dict[str, dict[LabelItems, StreamingHistogram]] = {}
        self._help: dict[str, str] = {}

    # -- recording -------------------------------------------------------------

    def inc(
        self,
        name: str,
        amount: float = 1.0,
        labels: Mapping[str, str] | None = None,
        help: str | None = None,
    ) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0.0) + amount
            if help:
                self._help.setdefault(name, help)

    def observe(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | None = None,
        help: str | None = None,
    ) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            histogram = series.get(key)
            if histogram is None:
                histogram = series[key] = default_histogram_for(name)
            if help:
                self._help.setdefault(name, help)
            histogram.add(value)

    def time(
        self,
        name: str,
        labels: Mapping[str, str] | None = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> "_Timer":
        """``with registry.time("stage_seconds", {"stage": "encode"}): ...``"""
        return _Timer(self, name, labels, clock)

    # -- reads -----------------------------------------------------------------

    def counter_value(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> float:
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def histogram(
        self, name: str, labels: Mapping[str, str] | None = None
    ) -> StreamingHistogram | None:
        with self._lock:
            return self._histograms.get(name, {}).get(_label_key(labels))

    def histogram_names(self) -> list[str]:
        with self._lock:
            return sorted(self._histograms)

    def snapshot(self) -> dict:
        """JSON-friendly dump (health endpoint, periodic logger)."""
        with self._lock:
            counters = {
                name: {
                    ",".join(f"{k}={v}" for k, v in key) or "_": value
                    for key, value in series.items()
                }
                for name, series in sorted(self._counters.items())
            }
            histograms = {
                name: {
                    ",".join(f"{k}={v}" for k, v in key) or "_": hist.snapshot()
                    for key, hist in series.items()
                }
                for name, series in sorted(self._histograms.items())
            }
        return {"counters": counters, "histograms": histograms}

    # -- exposition ------------------------------------------------------------

    def lines(self) -> list[str]:
        """Prometheus text exposition lines of everything recorded."""
        lines: list[str] = []
        with self._lock:
            counters = {
                name: dict(series) for name, series in self._counters.items()
            }
            histogram_items = [
                (name, list(series.items()))
                for name, series in self._histograms.items()
            ]
            help_texts = dict(self._help)
        for name in sorted(counters):
            full = f"{self.namespace}_{name}"
            lines += family_header(full, "counter", help_texts.get(name, ""))
            for key in sorted(counters[name]):
                lines.append(format_sample(full, key, counters[name][key]))
        for name, series in sorted(histogram_items):
            full = f"{self.namespace}_{name}"
            lines += family_header(full, "histogram", help_texts.get(name, ""))
            for key, histogram in sorted(series, key=lambda item: item[0]):
                lines.extend(histogram_lines(full, histogram, key))
        return lines


class _Timer:
    """Context manager recording elapsed wall-clock into a histogram."""

    __slots__ = ("_registry", "_name", "_labels", "_clock", "_started")

    def __init__(
        self,
        registry: MetricsRegistry,
        name: str,
        labels: Mapping[str, str] | None,
        clock: Callable[[], float],
    ) -> None:
        self._registry = registry
        self._name = name
        self._labels = labels
        self._clock = clock
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = self._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry.observe(
            self._name, self._clock() - self._started, self._labels
        )
