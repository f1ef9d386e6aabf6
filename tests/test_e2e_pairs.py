"""The quartile / verdict math of ``scripts/e2e_pairs.py``, on canned runs."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
import e2e_pairs  # noqa: E402

MANIFEST = {
    "workloads": [{"name": "steady"}, {"name": "churn"}],
    "end_to_end": [
        {"name": "req_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_ms", "better": "lower", "bound": 0.25},
    ],
}


def canned(workload, side, pair, req_per_s, latency_ms, failed=0):
    """One run as ``run.py`` prints it, wrapped as the script stores it."""
    return {
        "pair": pair, "workload": workload, "side": side, "seed": 100 + pair, "exit": 0,
        "result": {
            "correct": failed == 0, "attempted": 1000, "failed": failed,
            "metrics": {
                "req_per_s": {"value": req_per_s, "unit": "1/s"},
                "latency_ms": {"value": latency_ms, "unit": "ms"},
            },
        },
    }


class TestQuartiles:
    def test_linear_interpolation(self):
        assert e2e_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert e2e_pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)

    def test_single_run(self):
        assert e2e_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestJudge:
    def test_within_bound_is_ok_either_direction(self):
        parent = [100.0, 102.0, 98.0, 101.0]
        slower = e2e_pairs.judge(parent, [v * 0.9 for v in parent], "higher", 0.25)
        assert slower.verdict == "ok" and slower.move == pytest.approx(-0.1)
        assert slower.wins == 0
        faster = e2e_pairs.judge(parent, [v * 1.5 for v in parent], "higher", 0.25)
        assert faster.verdict == "ok" and faster.wins == 4

    def test_past_the_bound_is_worse(self):
        parent = [100.0, 102.0, 98.0, 101.0]
        assert e2e_pairs.judge(parent, [70.0] * 4, "higher", 0.25).verdict == "WORSE"
        # The same move on a lower-is-better metric is a gain.
        assert e2e_pairs.judge(parent, [70.0] * 4, "lower", 0.25).verdict == "ok"
        assert e2e_pairs.judge(parent, [130.0] * 4, "lower", 0.25).verdict == "WORSE"

    def test_noisy_parent_is_unresolved_unless_the_sides_separate(self):
        parent = [50.0, 60.0, 100.0, 140.0, 150.0]  # IQR/median 0.8 > 0.25
        overlapping = e2e_pairs.judge(parent, [90.0, 110.0, 95.0, 105.0, 100.0], "lower", 0.25)
        assert overlapping.spread == pytest.approx(0.8)
        assert overlapping.verdict == "unresolved"
        separated = e2e_pairs.judge(parent, [10.0, 20.0, 30.0, 40.0, 45.0], "lower", 0.25)
        assert separated.verdict == "ok"
        # Separated the wrong way round is still not "ok".
        assert e2e_pairs.judge(parent, [200.0] * 5, "lower", 0.25).verdict == "unresolved"

    def test_wins_and_ties_are_per_same_seed_pair(self):
        v = e2e_pairs.judge([10.0, 10.0, 10.0], [9.0, 10.0, 11.0], "lower", 0.25)
        assert (v.wins, v.ties) == (1, 1)


class TestReport:
    RUNS = [
        canned("steady", "parent", 1, 100.0, 3.0),
        canned("steady", "change", 1, 104.0, 2.9),
        canned("steady", "change", 2, 96.0, 3.1),
        canned("steady", "parent", 2, 100.0, 3.0),
        canned("churn", "parent", 1, 50.0, 10.0),
        canned("churn", "change", 1, 30.0, 10.0, failed=2),
    ]

    def test_table_rows_and_verdicts(self):
        rows = e2e_pairs.table(self.RUNS, MANIFEST)[2:]
        cells = [[cell.strip() for cell in row.split("|")[1:-1]] for row in rows]
        assert [(c[0], c[1], c[-1]) for c in cells] == [
            ("steady", "req_per_s", "ok"),
            ("steady", "latency_ms", "ok"),
            ("steady", "failed/attempted", "ok"),
            ("churn", "req_per_s", "WORSE"),
            ("churn", "latency_ms", "ok"),
            ("churn", "failed/attempted", "WORSE"),
        ]
        steady = cells[0]
        assert steady[2] == "100.000 / 100.000 / 100.000"
        assert steady[3] == "98.000 / 100.000 / 102.000"
        assert steady[4] == "+0.0%" and steady[7] == "1/2" and steady[8] == "2/2"
        assert cells[5][2:4] == ["0/1000", "2/1000"]

    def test_values_pair_up_by_seed_whatever_the_run_order(self):
        assert e2e_pairs._values(self.RUNS, "steady", "change", "req_per_s") == [104.0, 96.0]

    def test_history_is_one_line_per_workload_of_change_medians(self):
        lines = [json.loads(line) for line in
                 e2e_pairs.history_lines(self.RUNS, MANIFEST, 16, "abc1234")]
        assert [line["workload"] for line in lines] == ["steady", "churn"]
        assert lines[0]["pr"] == 16 and lines[0]["commit"] == "abc1234"
        assert lines[0]["medians"] == {"req_per_s": 100.0, "latency_ms": 3.0}
        assert lines[0]["iqr"]["req_per_s"] == pytest.approx(4.0)

    def test_report_lists_every_run(self):
        text = e2e_pairs.report(self.RUNS, MANIFEST, 16, "abc1234", 10.0)
        assert text.startswith("# PR 16 ")
        assert text.count("| 101 |") == 4 and text.count("| 102 |") == 2


def abandoned(workload, side, pair, reason="open-loop generator ran 7.2 ms late (p90)"):
    """A run that printed no result, as the script stores it."""
    return {
        "pair": pair, "workload": workload, "side": side, "seed": 100 + pair, "exit": 3,
        "result": None, "abandoned": reason,
    }


class TestAbandonedRuns:
    RUNS = [
        canned("steady", "parent", 1, 100.0, 3.0),
        canned("steady", "change", 1, 150.0, 2.0),
        abandoned("steady", "change", 2),
        canned("steady", "parent", 2, 200.0, 4.0),
        canned("steady", "parent", 3, 120.0, 3.5),
        canned("steady", "change", 3, 160.0, 2.5),
    ]

    def test_run_once_records_an_abandon_instead_of_exiting(self, tmp_path):
        script = tmp_path / "benchmarks" / "e2e" / "run.py"
        script.parent.mkdir(parents=True)
        script.write_text(
            "import sys\n"
            "print('warming up', file=sys.stderr)\n"
            "print('run.py: run abandoned: a child did not shut down cleanly',"
            " file=sys.stderr)\n"
            "sys.exit(3)\n"
        )
        code, result, reason = e2e_pairs.run_once(tmp_path, "steady", 101, 1.0)
        assert (code, result, reason) == (3, None, "a child did not shut down cleanly")

    def test_a_crash_keeps_its_last_stderr_line(self):
        assert e2e_pairs.abandon_reason("Traceback ...\nKeyError: 'x'\n") == "KeyError: 'x'"
        assert e2e_pairs.abandon_reason("") == "no output"

    def test_medians_and_pairs_leave_abandoned_runs_out(self):
        values = e2e_pairs._values(self.RUNS, "steady", "change", "req_per_s")
        assert values == [150.0, None, 160.0]
        v = e2e_pairs.judge(
            e2e_pairs._values(self.RUNS, "steady", "parent", "req_per_s"),
            values, "higher", 0.25,
        )
        assert v.change[1] == 155.0 and v.parent[1] == 120.0
        assert (v.wins, v.pairs) == (2, 2)
        row = e2e_pairs.table(self.RUNS, MANIFEST)[2]
        assert "| 2/2 | 3/2 |" in row

    def test_report_lists_and_counts_abandons_per_side(self):
        text = e2e_pairs.report(self.RUNS, MANIFEST, 45, "abc1234", 10.0)
        section = text.split("## Abandoned runs")[1].split("## Every run")[0]
        assert "| steady | 0/3 | 1/3 | WORSE |" in section
        assert (
            "- pair 2 steady change (seed 102, exit 3): "
            "open-loop generator ran 7.2 ms late (p90)"
        ) in section
        assert "| 2 | steady | change | 102 | 3 |  | abandoned: open-loop" in text
        history = json.loads(e2e_pairs.history_lines(self.RUNS, MANIFEST, 45, "x")[0])
        assert history["medians"]["req_per_s"] == 155.0

    def test_no_abandon_says_so(self):
        text = e2e_pairs.report(TestReport.RUNS, MANIFEST, 16, "abc1234", 10.0)
        assert "| steady | 0/2 | 0/2 | ok |" in text
        assert "No run was abandoned." in text
