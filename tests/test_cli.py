"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import main


class TestTraceGen:
    def test_writes_trace(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        code = main(
            ["trace-gen", "--requests", "40", "--users", "4", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "wrote 40 requests" in capsys.readouterr().out

    def test_session_urls_flag(self, tmp_path):
        out = tmp_path / "t.log"
        main(
            [
                "trace-gen",
                "--requests",
                "30",
                "--session-urls",
                "--out",
                str(out),
            ]
        )
        content = out.read_text()
        assert "sid=" in content


class TestReplay:
    def test_replay_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        main(
            [
                "trace-gen",
                "--requests",
                "60",
                "--users",
                "5",
                "--products",
                "2",
                "--out",
                str(out),
            ]
        )
        code = main(
            ["replay", str(out), "--products", "2", "--verify"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "verify failures | 0" in output

    def test_site_args_must_match(self, tmp_path):
        out = tmp_path / "t.log"
        main(["trace-gen", "--requests", "20", "--out", str(out)])
        # replaying against a different site: every request 404s and passes
        # through; no verify failures because bodies still match the origin
        code = main(["replay", str(out), "--site", "www.other.example"])
        assert code == 0


class TestDelta:
    def test_delta_files(self, tmp_path, capsys):
        base = tmp_path / "base.html"
        target = tmp_path / "cur.html"
        base.write_bytes(b"<html>" + b"<p>stable prose paragraph</p>" * 100 + b"</html>")
        target.write_bytes(
            base.read_bytes().replace(b"stable prose", b"updated prose", 3)
        )
        out = tmp_path / "delta.bin"
        code = main(["delta", str(base), str(target), "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "delta" in capsys.readouterr().out


class TestCapacity:
    def test_prints_table(self, capsys):
        assert main(["capacity"]) == 0
        assert "capacity" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["nonsense"])


class TestServeFleetOptions:
    #: ``serve`` options a fleet worker must not receive from the user's
    #: command line: the supervisor owns them (it sets the listen address,
    #: the per-worker state directory and the hidden fleet-wiring flags
    #: itself) or refuses them.
    SUPERVISOR_OWNED = {
        "--host", "--port", "--workers", "--admin-port", "--control-file",
        "--state-dir", "--max-requests", "--fleet-worker-id", "--fleet-size",
        "--fleet-internal-port", "--fleet-peers", "--fleet-listen-fd",
        "--reuse-port",
    }

    def test_workers_refuse_max_requests_before_spawning(self, tmp_path, capsys):
        control = tmp_path / "fleet.json"
        code = main([
            "serve", "--workers", "2", "--port", "0", "--max-requests", "10",
            "--control-file", str(control),
        ])
        assert code == 2
        assert "--max-requests" in capsys.readouterr().err
        assert not control.exists()

    def test_every_serve_option_is_forwarded_or_owned_by_the_supervisor(self):
        """A new ``serve`` flag fails here until it is either forwarded to
        fleet workers or listed as the supervisor's."""
        from repro.cli import _fleet_worker_passthrough, build_parser

        parser = build_parser()
        (subparsers,) = [
            action for action in parser._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        serve = subparsers.choices["serve"]
        options = {
            flag
            for action in serve._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings
        }
        # Every conditionally forwarded option set, so each one shows.
        args = parser.parse_args([
            "serve", "--workers", "2", "--fault-plan", "error:rate=0.1",
            "--snapshot-every", "4", "--metrics-interval", "1",
        ])
        forwarded = {
            flag for flag in _fleet_worker_passthrough(args) if flag.startswith("--")
        }
        assert forwarded.isdisjoint(self.SUPERVISOR_OWNED)
        assert options == forwarded | self.SUPERVISOR_OWNED


class TestServeAndLoadgen:
    def test_serve_then_loadgen_in_process(self, tmp_path, capsys):
        """The serve command in a thread, the loadgen command against it
        — the same sequence the CI smoke job runs from a shell."""
        import re
        import socket
        import threading
        import time

        trace_path = tmp_path / "t.log"
        main(["trace-gen", "--requests", "60", "--users", "6", "--out", str(trace_path)])
        capsys.readouterr()

        with socket.socket() as probe:  # pick a free port up front
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        # --max-requests lets the server exit on its own once the load
        # generator is done (60 documents + base fetches < 90).
        server = threading.Thread(
            target=main,
            args=(["serve", "--port", str(port), "--max-requests", "90"],),
            daemon=True,
        )
        server.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                    break
            except OSError:
                time.sleep(0.05)
        else:
            raise AssertionError("server never started listening")

        code = main(["loadgen", str(trace_path), "--port", str(port)])
        output = capsys.readouterr().out
        assert code == 0
        match = re.search(
            r"delta failures / verify failures +\| (\d+) / (\d+)", output
        )
        assert match is not None and match.group(2) == "0"
        assert re.search(r"requests / completed +\| 60 / 60", output)
        server.join(timeout=10.0)

    def test_loadgen_reports_when_nothing_listens(self, tmp_path, capsys):
        import socket

        trace_path = tmp_path / "t.log"
        main(["trace-gen", "--requests", "5", "--users", "2", "--out", str(trace_path)])
        capsys.readouterr()
        with socket.socket() as probe:  # a port with no listener behind it
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(
            ["loadgen", str(trace_path), "--port", str(port), "--concurrency", "1"]
        )
        output = capsys.readouterr().out
        assert code == 0  # verify failures are the only failure signal
        assert "requests / completed" in output

    def test_loadgen_strict_fails_on_errors(self, tmp_path, capsys):
        import socket

        trace_path = tmp_path / "t.log"
        main(["trace-gen", "--requests", "5", "--users", "2", "--out", str(trace_path)])
        capsys.readouterr()
        with socket.socket() as probe:  # a port with no listener behind it
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        code = main(
            ["loadgen", str(trace_path), "--port", str(port),
             "--concurrency", "1", "--strict"]
        )
        capsys.readouterr()
        assert code == 1  # --strict: connection errors fail the run


class TestTraceStats:
    def test_stats_of_generated_trace(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        main(["trace-gen", "--requests", "50", "--users", "5", "--out", str(out)])
        capsys.readouterr()
        assert main(["trace-stats", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Zipf alpha" in output
        assert "requests" in output


class TestStoreInspect:
    def _seed(self, tmp_path):
        from repro.store import Store

        state_dir = tmp_path / "state"
        store = Store.open(state_dir, snapshot_every=4)
        store.add_class("cls1", "www.s.com", "hint")
        store.add_member("cls1", "www.s.com/a")
        for v in range(1, 4):
            store.commit_base("cls1", v, b"<html>body " * 100 + str(v).encode())
        store.close()
        return state_dir

    def test_inspect_dumps_json(self, tmp_path, capsys):
        import json

        state_dir = self._seed(tmp_path)
        assert main(["store", "inspect", str(state_dir)]) == 0
        dump = json.loads(capsys.readouterr().out)
        assert dump["generation"] == 1
        assert dump["journal"]["torn_tail_bytes"] == 0
        assert dump["classes"]["cls1"]["versions"] == [1, 2, 3]
        assert dump["classes"]["cls1"]["latest"] == 3

    def test_inspect_compact_is_single_line(self, tmp_path, capsys):
        import json

        state_dir = self._seed(tmp_path)
        assert main(["store", "inspect", str(state_dir), "--compact"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        assert json.loads(out)["classes"]["cls1"]["members"] == 1

    def test_inspect_missing_dir_fails(self, tmp_path, capsys):
        code = main(["store", "inspect", str(tmp_path / "nope")])
        assert code == 1

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["store"])


class TestServeStateDir:
    def test_serve_persists_and_warm_restarts(self, tmp_path, capsys):
        """serve --state-dir twice over the same directory: the second boot
        reports a warm start — the same check the CI smoke job makes."""
        import json
        import re
        import socket
        import threading
        import time
        import urllib.request

        state_dir = tmp_path / "state"
        trace_path = tmp_path / "t.log"
        main(["trace-gen", "--requests", "40", "--users", "4", "--out", str(trace_path)])
        capsys.readouterr()

        def boot_and_load(extra_requests):
            with socket.socket() as probe:
                probe.bind(("127.0.0.1", 0))
                port = probe.getsockname()[1]
            server = threading.Thread(
                target=main,
                args=(
                    [
                        "serve", "--port", str(port),
                        "--state-dir", str(state_dir),
                        "--snapshot-every", "4",
                        "--max-requests", str(40 + extra_requests),
                    ],
                ),
                daemon=True,
            )
            server.start()
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                try:
                    with socket.create_connection(("127.0.0.1", port), timeout=0.2):
                        break
                except OSError:
                    time.sleep(0.05)
            else:
                raise AssertionError("server never started listening")
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/__health__", timeout=2.0
            ) as resp:
                health = json.loads(resp.read())
            code = main(["loadgen", str(trace_path), "--port", str(port)])
            assert code == 0
            server.join(timeout=10.0)
            return health

        cold = boot_and_load(extra_requests=30)
        out_cold = capsys.readouterr().out
        assert cold["engine"]["warm_start"] is False
        assert re.search(r"persistent store: .*warm_start=False", out_cold)

        warm = boot_and_load(extra_requests=30)
        out_warm = capsys.readouterr().out
        assert warm["engine"]["warm_start"] is True
        assert warm["engine"]["rehydrated_classes"] > 0
        assert warm["engine"]["store"]["classes"] > 0
        assert re.search(r"persistent store: .*warm_start=True", out_warm)
