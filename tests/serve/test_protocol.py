"""Tests for the HTTP/1.1 wire mapping (repro.serve.protocol)."""

import asyncio

import pytest

from repro.http.messages import HEADER_ACCEPT_DELTA, Request, Response
from repro.serve.protocol import (
    ParsedRequest,
    ParsedResponse,
    ProtocolError,
    body_digest,
    digest_matches,
    parse_cookie_header,
    read_request,
    read_response,
    render_cookie_header,
    serialize_request,
    serialize_response,
)


def feed(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def parse_request(wire: bytes) -> ParsedRequest | None:
    async def run():
        return await read_request(feed(wire))

    return asyncio.run(run())


def parse_response(wire: bytes) -> ParsedResponse:
    async def run():
        return await read_response(feed(wire))

    return asyncio.run(run())


class TestRequestRoundtrip:
    def test_roundtrip_preserves_url_cookies_headers(self):
        request = Request(
            url="www.shop.example/browse?cat=laptops&id=3",
            cookies={"uid": "u7", "theme": "dark"},
            client_id="u7",
        )
        request.headers.set(HEADER_ACCEPT_DELTA, "cls1/2")
        parsed = parse_request(serialize_request(request))
        assert parsed is not None
        back = parsed.request
        assert back.url == request.url
        assert back.method == "GET"
        assert back.cookies == request.cookies
        assert back.client_id == "u7"
        assert back.headers.get(HEADER_ACCEPT_DELTA) == "cls1/2"
        assert parsed.keep_alive
        assert parsed.wire_bytes == len(serialize_request(request))

    def test_connection_close_requested(self):
        request = Request(url="www.s.example/x?id=1")
        parsed = parse_request(serialize_request(request, keep_alive=False))
        assert parsed is not None and not parsed.keep_alive

    def test_anonymous_without_uid_cookie(self):
        parsed = parse_request(b"GET /p?id=1 HTTP/1.1\r\nHost: www.s.example\r\n\r\n")
        assert parsed is not None
        assert parsed.request.client_id == "anonymous"
        assert parsed.request.url == "www.s.example/p?id=1"

    def test_absolute_form_target(self):
        parsed = parse_request(b"GET http://www.s.example/p?id=1 HTTP/1.1\r\n\r\n")
        assert parsed is not None
        assert parsed.request.url == "www.s.example/p?id=1"

    def test_clean_eof_returns_none(self):
        assert parse_request(b"") is None

    def test_stray_blank_line_tolerated(self):
        parsed = parse_request(b"\r\nGET / HTTP/1.1\r\nHost: h.example\r\n\r\n")
        assert parsed is not None
        assert parsed.request.url == "h.example/"

    def test_http_10_defaults_to_close(self):
        parsed = parse_request(b"GET / HTTP/1.0\r\nHost: h.example\r\n\r\n")
        assert parsed is not None and not parsed.keep_alive


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "wire",
        [
            b"GARBAGE\r\n\r\n",
            b"GET /x\r\n\r\n",  # missing version
            b"GET /x SPDY/3\r\nHost: h\r\n\r\n",
            b"GET /x HTTP/1.1\r\n\r\n",  # no Host, origin-form
            b"GET x HTTP/1.1\r\nHost: h\r\n\r\n",  # target not /-rooted
            b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: nope\r\n\r\n",
            b"GET /x HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nshort",
        ],
    )
    def test_raises_protocol_error(self, wire):
        with pytest.raises(ProtocolError):
            parse_request(wire)

    def test_request_body_consumed_for_framing(self):
        wire = (
            b"POST /x HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody"
            b"GET /y HTTP/1.1\r\nHost: h\r\n\r\n"
        )

        async def run():
            reader = feed(wire)
            first = await read_request(reader)
            second = await read_request(reader)
            return first, second

        first, second = asyncio.run(run())
        assert first.request.url == "h/x"
        assert second.request.url == "h/y"


class TestResponseRoundtrip:
    def test_content_length_roundtrip(self):
        response = Response(status=200, body=b"hello world")
        response.headers.set("X-Delta-Base", "cls1/1")
        parsed = parse_response(serialize_response(response))
        assert parsed.response.status == 200
        assert parsed.response.body == b"hello world"
        assert parsed.response.base_file_ref == "cls1/1"
        assert parsed.keep_alive

    def test_chunked_roundtrip(self):
        body = bytes(range(256)) * 300  # several chunks
        wire = serialize_response(Response(status=200, body=body), chunked=True)
        parsed = parse_response(wire)
        assert parsed.response.body == body
        assert b"Transfer-Encoding: chunked" in wire

    def test_close_delimited_body(self):
        wire = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\ntail bytes"
        parsed = parse_response(wire)
        assert parsed.response.body == b"tail bytes"
        assert not parsed.keep_alive

    def test_cachable_inferred_from_cache_control(self):
        response = Response(status=200, body=b"base")
        response.mark_cachable()
        parsed = parse_response(serialize_response(response))
        assert parsed.response.cachable

    def test_truncated_chunked_raises(self):
        wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nab"
        with pytest.raises(ProtocolError):
            parse_response(wire)

    def test_bad_chunk_size_raises(self):
        wire = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n"
        with pytest.raises(ProtocolError):
            parse_response(wire)

    def test_malformed_status_line_raises(self):
        with pytest.raises(ProtocolError):
            parse_response(b"ICY 200 OK\r\n\r\n")
        with pytest.raises(ProtocolError):
            parse_response(b"HTTP/1.1 abc OK\r\n\r\n")

    @pytest.mark.parametrize(
        "status", [b"-7", b"+200", b"2_00", b"99", b"600", b"\xb200"]
    )
    def test_status_is_ascii_digits_in_range(self, status):
        with pytest.raises(ProtocolError):
            parse_response(b"HTTP/1.1 " + status + b" X\r\nContent-Length: 0\r\n\r\n")


#: spellings ``int()`` takes and a strict peer does not (or reads differently)
LENIENT_LENGTHS = [b"+5", b"-0", b"0_5", b"\xa05", b"\xb25", b"5\x0b", b"0x5", b"5.0", b""]


class TestStrictFraming:
    """A proxy and its upstream must never disagree on where a body ends."""

    @pytest.mark.parametrize("length", LENIENT_LENGTHS)
    def test_content_length_is_ascii_digits_only(self, length):
        tail = b"\r\nContent-Length: " + length + b"\r\n\r\nhello"
        with pytest.raises(ProtocolError):
            parse_request(b"POST /x HTTP/1.1\r\nHost: h" + tail)
        with pytest.raises(ProtocolError):
            parse_response(b"HTTP/1.1 200 OK" + tail)

    @pytest.mark.parametrize("size", LENIENT_LENGTHS + [b" 5", b"5 "])
    def test_chunk_size_is_hex_digits_only(self, size):
        tail = b"\r\nTransfer-Encoding: chunked\r\n\r\n" + size + b"\r\nhello\r\n0\r\n\r\n"
        with pytest.raises(ProtocolError):
            parse_request(b"POST /x HTTP/1.1\r\nHost: h" + tail)
        with pytest.raises(ProtocolError):
            parse_response(b"HTTP/1.1 200 OK" + tail)

    def test_plain_spellings_still_parse(self):
        parsed = parse_response(
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"A;ext=1\r\n0123456789\r\n0\r\n\r\n"
        )
        assert parsed.response.body == b"0123456789"
        parsed = parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: \t 005\r\n\r\nhello")
        assert parsed.response.body == b"hello"


class TestHelpers:
    def test_cookie_roundtrip(self):
        cookies = {"uid": "u1", "cart": "3"}
        assert parse_cookie_header(render_cookie_header(cookies)) == cookies

    def test_cookie_parse_tolerates_junk(self):
        assert parse_cookie_header("uid=u1; ; =x; bare") == {"uid": "u1"}

    def test_body_digest_matches(self):
        body = b"the document"
        assert digest_matches(body_digest(body), body)
        assert not digest_matches(body_digest(body), body + b"!")
        assert not digest_matches(None, body)
