"""The CI exposition gate (scripts/check_prometheus_exposition.py) itself."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
from check_prometheus_exposition import check  # noqa: E402

VALID = """\
# HELP repro_x_total things
# TYPE repro_x_total counter
repro_x_total{kind="a"} 1
repro_x_total{kind="b"} 2
# TYPE repro_depth gauge
repro_depth 3
# TYPE repro_lat_seconds histogram
repro_lat_seconds_bucket{le="0.1"} 1
repro_lat_seconds_bucket{le="+Inf"} 2
repro_lat_seconds_sum 0.3
repro_lat_seconds_count 2
"""


def test_valid_exposition_has_no_problems():
    assert check(VALID) == []


def test_second_type_for_a_family_is_rejected():
    problems = check(VALID + "# TYPE repro_depth gauge\nrepro_depth 4\n")
    assert problems == ["line 12: second TYPE for repro_depth"]


def test_sample_without_a_type_is_rejected():
    problems = check(VALID + "repro_orphan_total 1\n")
    assert len(problems) == 1 and "untyped family" in problems[0]
    # _sum/_count only belong to a family that is typed as a histogram.
    problems = check("# TYPE repro_depth gauge\nrepro_depth_count 1\n")
    assert len(problems) == 1 and "untyped family" in problems[0]


def test_counter_not_ending_in_total_is_rejected():
    """What would have caught ``repro_store_compactions`` beside
    ``repro_store_compactions_total``."""
    problems = check("# TYPE repro_store_compactions counter\nrepro_store_compactions 1\n")
    assert problems == [
        "line 1: counter repro_store_compactions does not end in _total"
    ]
