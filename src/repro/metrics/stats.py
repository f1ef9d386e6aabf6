"""Declare a live count once, on its ``*Stats`` dataclass; render it from there.

A field says what it is with :func:`counter`, :func:`gauge` or
:func:`histogram` in place of a bare default — kind, HELP text and, only
where a pinned family name differs from the field name, ``name=``.  The
code increments the plain attribute; :func:`stats_lines` turns the object
into exposition lines (``<prefix><name>_total`` for a counter,
``<prefix><name>`` otherwise) and :func:`stats_dict` into the JSON-ready
dict ``/__health__`` serves.  So a counter is exposed from zero, under
one family, and rendering costs nothing until a scrape asks for it.
Values computed rather than counted (cache size, uptime, breaker state)
go through ``gauges=`` or :func:`family_lines`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import field, fields
from typing import Any, Callable, Collection, Mapping

from repro.metrics.registry import family_header, format_sample, histogram_lines

_SPEC = "metric"


def counter(
    help: str = "", *, name: str | None = None, label: str | None = None
) -> Any:
    """A monotone count from 0; with ``label``, a ``Counter`` keyed by its values."""
    spec = {_SPEC: ("counter", help, name, label)}
    if label is not None:
        return field(default_factory=Counter, metadata=spec)
    return field(default=0, metadata=spec)


def gauge(help: str = "", *, name: str | None = None, default: Any = 0) -> Any:
    """A value that can go down, or that is set rather than counted."""
    return field(default=default, metadata={_SPEC: ("gauge", help, name, None)})


def histogram(factory: Callable[[], Any], help: str = "", *, name: str) -> Any:
    """A ``LatencySample``/``SizeSample`` (anything holding a ``.histogram``)."""
    spec = {_SPEC: ("histogram", help, name, None)}
    return field(default_factory=factory, metadata=spec)


def family_lines(
    kind: str, name: str, value: Any, *, help: str = "", label: str | None = None
) -> list[str]:
    """One family: header, then samples.

    ``value`` is a number; with ``label``, a mapping of that label's
    values to numbers (``None`` entries are skipped; an empty mapping
    still declares the family); for a histogram, its holder.
    """
    lines = family_header(name, kind, help)
    if kind == "histogram":
        return lines + histogram_lines(name, value.histogram)
    if label is None:
        return lines + [format_sample(name, (), value)]
    return lines + [
        format_sample(name, ((label, str(key)),), value[key])
        for key in sorted(value)
        if value[key] is not None
    ]


def stats_lines(
    stats: Any,
    prefix: str,
    *,
    only: Collection[str] | None = None,
    gauges: Mapping[str, float] | None = None,
) -> list[str]:
    """Exposition lines for the declared fields of a stats dataclass.

    ``only`` names the fields to render (a tier exposing part of a shared
    stats type); ``gauges`` adds computed ``<prefix><key>`` gauges.
    """
    lines: list[str] = []
    for f in fields(stats):
        spec = f.metadata.get(_SPEC)
        if spec is None or (only is not None and f.name not in only):
            continue
        kind, help_text, name, label = spec
        full = prefix + (name or f.name) + ("_total" if kind == "counter" else "")
        lines += family_lines(
            kind, full, getattr(stats, f.name), help=help_text, label=label
        )
    for name, value in (gauges or {}).items():
        lines += family_lines("gauge", prefix + name, value)
    return lines


def _plain(value: Any) -> Any:
    if isinstance(value, float):
        return round(value, 6)
    if isinstance(value, Mapping):
        return {str(key): value[key] for key in sorted(value)}
    if hasattr(value, "histogram"):
        return value.histogram.snapshot()
    return value


def stats_dict(stats: Any) -> dict:
    """Every field of a stats dataclass, JSON-ready (``/__health__``)."""
    return {f.name: _plain(getattr(stats, f.name)) for f in fields(stats)}
