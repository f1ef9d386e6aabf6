"""Hypothesis fuzz suite for the HTTP/1.1 stream parsers.

``read_request`` and ``read_response`` face the network on every tier —
the serve shell, the proxy on both sides, the fleet forward hop, the
load generator — and since the role cores (``repro.client.protocol``,
``repro.proxy.proxy``) both tiers of each role sit on them.  Whatever
bytes arrive, the only outcomes are a parsed message, ``None`` from
``read_request`` on clean EOF, or :class:`ProtocolError`: no other
exception type, and no read that waits past EOF.

Streams are valid messages (Content-Length and chunked framing, both
directions) that are then truncated, byte-flipped, or spliced into one
another, plus plain garbage.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.http.messages import Request, Response
from repro.serve.protocol import (
    ParsedRequest,
    ParsedResponse,
    ProtocolError,
    read_request,
    read_response,
    serialize_request,
    serialize_response,
)

_token = st.text("abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12)
_bodies = st.binary(max_size=300)


@st.composite
def _request_wires(draw) -> bytes:
    request = Request(
        url=f"{draw(_token)}.example/{draw(_token)}?id={draw(st.integers(0, 99))}",
        method=draw(st.sampled_from(["GET", "POST", "HEAD"])),
        cookies=draw(st.dictionaries(_token, _token, max_size=2)),
    )
    for name, value in draw(st.dictionaries(_token, _token, max_size=3)).items():
        request.headers.set(f"X-{name}", value)
    wire = serialize_request(request, keep_alive=draw(st.booleans()))
    body = draw(_bodies)
    framing = draw(st.sampled_from(["none", "length", "chunked"]))
    head = wire[:-2]  # re-open the header block
    if framing == "length":
        return head + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    if framing == "chunked":
        return head + b"Transfer-Encoding: chunked\r\n\r\n" + _chunked(draw, body)
    return wire


def _chunked(draw, body: bytes) -> bytes:
    size = draw(st.integers(1, 64))
    out = bytearray()
    for start in range(0, len(body), size):
        chunk = body[start : start + size]
        out += f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n"
    return bytes(out + b"0\r\n\r\n")


@st.composite
def _response_wires(draw) -> bytes:
    response = Response(
        status=draw(st.sampled_from([200, 204, 304, 404, 500, 503])),
        body=draw(_bodies),
    )
    for name, value in draw(st.dictionaries(_token, _token, max_size=3)).items():
        response.headers.set(f"X-{name}", value)
    if draw(st.booleans()):
        response.mark_cachable()
    return serialize_response(
        response,
        keep_alive=draw(st.booleans()),
        chunked=draw(st.booleans()),
        chunk_size=draw(st.integers(1, 64)),
    )


@st.composite
def _mangled(draw, wires) -> bytes:
    """A stream of one or two messages, damaged one of four ways."""
    stream = draw(wires)
    how = draw(st.sampled_from(["intact", "truncate", "flip", "splice"]))
    if how == "truncate":
        return stream[: draw(st.integers(0, len(stream)))]
    if how == "flip":
        damaged = bytearray(stream)
        for _ in range(draw(st.integers(1, 4))):
            damaged[draw(st.integers(0, len(damaged) - 1))] ^= draw(st.integers(1, 255))
        return bytes(damaged)
    if how == "splice":
        other = draw(wires)
        return (
            stream[: draw(st.integers(0, len(stream)))]
            + other[draw(st.integers(0, len(other))) :]
        )
    return stream + draw(st.one_of(st.just(b""), wires))


def _drain(read, data: bytes, parsed_type: type) -> list:
    """Read messages until the stream ends; every outcome must be legal."""

    async def run() -> list:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        outcomes: list = []
        # More messages than bytes cannot happen: a bound, not a budget.
        for _ in range(len(data) + 2):
            try:
                message = await asyncio.wait_for(read(reader), 5.0)
            except ProtocolError as error:
                outcomes.append(error)
                return outcomes
            outcomes.append(message)
            if message is None or reader.at_eof():
                return outcomes
            assert isinstance(message, parsed_type)
            assert 0 < message.wire_bytes <= len(data)
        raise AssertionError("parser kept producing messages past the stream")

    return asyncio.run(run())


@settings(max_examples=400, deadline=None)
@given(_mangled(_request_wires()))
def test_read_request_parses_or_raises_protocol_error(data):
    _drain(read_request, data, ParsedRequest)


@settings(max_examples=400, deadline=None)
@given(_mangled(_response_wires()))
def test_read_response_parses_or_raises_protocol_error(data):
    _drain(read_response, data, ParsedResponse)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=400))
def test_garbage_never_escapes_protocol_error(data):
    _drain(read_request, data, ParsedRequest)
    _drain(read_response, data, ParsedResponse)


@settings(max_examples=100, deadline=None)
@given(_request_wires(), _response_wires())
def test_undamaged_streams_parse_completely(request_wire, response_wire):
    (request,) = _drain(read_request, request_wire, ParsedRequest)
    assert isinstance(request, ParsedRequest)
    assert request.wire_bytes == len(request_wire)
    (response,) = _drain(read_response, response_wire, ParsedResponse)
    assert isinstance(response, ParsedResponse)
    assert response.wire_bytes == len(response_wire)
