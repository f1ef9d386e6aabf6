"""LoadGenConfig refuses knobs that would make a run meaningless.

``request_timeout <= 0`` used to time out every request (``asyncio.wait_for``
with a zero budget) while the command still exited 0 without ``--strict``;
``max_requests < 0`` used to slice the trace from the end and silently drop
its last records.
"""

import pytest

from repro.cli import main
from repro.serve.loadgen import LoadGenConfig
from repro.workload.trace import Trace, TraceRecord


@pytest.mark.parametrize("timeout", [0.0, -1.0])
def test_non_positive_request_timeout_is_refused(timeout):
    with pytest.raises(ValueError, match="request_timeout"):
        LoadGenConfig(request_timeout=timeout)


def test_negative_max_requests_is_refused():
    with pytest.raises(ValueError, match="max_requests"):
        LoadGenConfig(max_requests=-1)


def test_zero_max_requests_replays_nothing_and_is_allowed():
    assert LoadGenConfig(max_requests=0).max_requests == 0


@pytest.mark.parametrize(
    "flags", [["--timeout", "0"], ["--requests", "-1"]], ids=["timeout", "requests"]
)
def test_cli_rejects_before_connecting(tmp_path, capsys, flags):
    trace = tmp_path / "t.log"
    Trace(
        name="one", records=[TraceRecord(0.0, "u1", "www.shop.example/laptops?id=1")]
    ).save(trace)
    # Port 1 on loopback: nothing listens, so a run that got as far as
    # connecting would report errors — the exit code must come first.
    assert main(["loadgen", str(trace), "--port", "1", *flags]) == 2
    assert "loadgen:" in capsys.readouterr().err
