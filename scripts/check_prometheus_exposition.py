#!/usr/bin/env python3
"""Validate Prometheus text-exposition output (the CI /__metrics__ gate).

Reads exposition text from stdin (or a file argument) and exits non-zero,
printing each offending line, if anything is malformed:

* every non-blank line must be a ``# HELP``/``# TYPE`` comment or a
  ``name{label="v",...} value [timestamp]`` sample;
* ``# TYPE`` values must be one of the known metric kinds, a family is
  typed at most once, and a ``counter`` family's name ends in ``_total``;
* every sample belongs to a family with a ``# TYPE`` (for a histogram,
  the name without ``_bucket``/``_sum``/``_count``);
* histogram families must be internally consistent — cumulative
  ``_bucket`` counts monotone in ``le`` order, ending at an ``+Inf``
  bucket that equals ``_count``.

Usage::

    curl -s http://127.0.0.1:$PORT/__metrics__ | python scripts/check_prometheus_exposition.py
    python scripts/check_prometheus_exposition.py metrics.txt
"""

from __future__ import annotations

import math
import re
import sys

COMMENT_RE = re.compile(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.+)$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[+-]?Inf|NaN|[+-]?(?:[0-9]*\.)?[0-9]+(?:[eE][+-]?[0-9]+)?)"
    r"(?: [0-9]+)?$"
)
LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\["\\n])*"$')
KNOWN_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
HISTOGRAM_SUFFIXES = ("_bucket", "_sum", "_count")


def _split_labels(raw: str) -> list[str] | None:
    """Split a label body on commas outside quotes; None if unbalanced."""
    parts, current, in_quotes, escaped = [], [], False, False
    for char in raw:
        if escaped:
            current.append(char)
            escaped = False
            continue
        if char == "\\":
            current.append(char)
            escaped = True
            continue
        if char == '"':
            in_quotes = not in_quotes
            current.append(char)
            continue
        if char == "," and not in_quotes:
            parts.append("".join(current))
            current = []
            continue
        current.append(char)
    if in_quotes or escaped:
        return None
    if current:
        parts.append("".join(current))
    return parts


def check(text: str) -> list[str]:
    """Return a list of human-readable problems (empty = valid)."""
    problems: list[str] = []
    declared_types: dict[str, str] = {}
    # histogram family state: base name -> {"buckets": [(le, value)], "count": float}
    histograms: dict[str, dict] = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = COMMENT_RE.match(line)
            if not match:
                problems.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            kind, name, payload = match.groups()
            if kind == "TYPE":
                if payload not in KNOWN_TYPES:
                    problems.append(
                        f"line {lineno}: unknown TYPE {payload!r} for {name}"
                    )
                if name in declared_types:
                    problems.append(f"line {lineno}: second TYPE for {name}")
                if payload == "counter" and not name.endswith("_total"):
                    problems.append(
                        f"line {lineno}: counter {name} does not end in _total"
                    )
                declared_types[name] = payload
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = match.group("name")
        if name not in declared_types and not any(
            name.endswith(suffix)
            and declared_types.get(name[: -len(suffix)]) in ("histogram", "summary")
            for suffix in HISTOGRAM_SUFFIXES
        ):
            problems.append(f"line {lineno}: sample of untyped family: {line!r}")
        raw_labels = match.group("labels")
        labels: dict[str, str] = {}
        if raw_labels is not None:
            parts = _split_labels(raw_labels)
            if parts is None:
                problems.append(f"line {lineno}: unbalanced labels: {line!r}")
                continue
            for part in parts:
                if not LABEL_RE.match(part):
                    problems.append(
                        f"line {lineno}: malformed label {part!r}: {line!r}"
                    )
                    break
                key, value = part.split("=", 1)
                labels[key] = value[1:-1]
        raw_value = match.group("value")
        if raw_value in ("+Inf", "-Inf"):
            value = math.inf if raw_value == "+Inf" else -math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            value = float(raw_value)
        for suffix, field in (("_bucket", "buckets"), ("_count", "count")):
            if not name.endswith(suffix):
                continue
            base = name[: -len(suffix)]
            if declared_types.get(base) != "histogram":
                continue
            series = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            family = histograms.setdefault((base, series), {"buckets": [], "count": None})
            if field == "buckets":
                le_raw = labels.get("le")
                if le_raw is None:
                    problems.append(f"line {lineno}: bucket without le: {line!r}")
                    continue
                le = math.inf if le_raw == "+Inf" else float(le_raw)
                family["buckets"].append((le, value, lineno))
            else:
                family["count"] = (value, lineno)

    for (base, series), family in histograms.items():
        where = f"{base}{{{','.join(f'{k}={v}' for k, v in series)}}}"
        buckets = sorted(family["buckets"])
        if not buckets:
            problems.append(f"{where}: histogram has no buckets")
            continue
        counts = [value for _, value, _ in buckets]
        if counts != sorted(counts):
            problems.append(f"{where}: bucket counts are not cumulative")
        last_le, last_value, last_line = buckets[-1]
        if last_le != math.inf:
            problems.append(f"{where}: missing +Inf bucket")
        if family["count"] is not None and family["count"][0] != last_value:
            problems.append(
                f"{where}: _count {family['count'][0]} != +Inf bucket {last_value}"
            )
    return problems


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as handle:
            text = handle.read()
    else:
        text = sys.stdin.read()
    if not text.strip():
        print("check_prometheus_exposition: empty input", file=sys.stderr)
        return 1
    problems = check(text)
    for problem in problems:
        print(f"check_prometheus_exposition: {problem}", file=sys.stderr)
    if problems:
        return 1
    samples = sum(
        1 for line in text.splitlines() if line.strip() and not line.startswith("#")
    )
    print(f"check_prometheus_exposition: OK ({samples} samples)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
