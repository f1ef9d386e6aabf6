"""HTTP/1.1 wire protocol mapped onto the ``repro.http`` message model.

The simulated architecture exchanges in-process :class:`Request` /
:class:`Response` objects; the live server (:mod:`repro.serve.server`)
speaks a minimal but honest subset of HTTP/1.1 over asyncio streams and
translates at this boundary:

* request line + ``Host`` header ↔ the repo's ``<server>/<rest>`` URL form;
* ``Cookie`` header ↔ the request cookie dict (``uid`` user identification);
* the delta headers (``X-Delta``, ``X-Delta-Base``, ``X-Accept-Delta``)
  pass through untouched — they are ordinary end-to-end headers, which is
  the paper's transparent-deployment point;
* ``Content-Length`` and ``Transfer-Encoding: chunked`` bodies, both
  directions;
* keep-alive per HTTP/1.1 defaults (``Connection: close`` honoured).

Framing errors raise :class:`ProtocolError`; clean EOF between requests
is reported as ``None`` so connection loops can distinguish the two.

Two serve-layer extension headers ride along:

* ``X-Body-Digest: adler32=<hex>`` — integrity tag over the response body
  for non-delta responses (delta payloads carry their target checksum in
  the wire format already), so the load generator can verify byte-for-byte
  reconstruction for every response kind;
* ``X-Served-At: <seconds>`` — the server clock value used to render the
  document, letting a test harness re-render the exact snapshot.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

from repro.delta.codec import checksum
from repro.http.messages import HEADER_CACHE_CONTROL, Headers, Request, Response
from repro.url.parts import split_server

HTTP_VERSION = "HTTP/1.1"
SERVER_SOFTWARE = "repro-serve/1.0"

HEADER_BODY_DIGEST = "X-Body-Digest"
HEADER_SERVED_AT = "X-Served-At"

#: chunk size used when a response is sent with chunked framing
DEFAULT_CHUNK_SIZE = 8192

MAX_LINE_BYTES = 16 * 1024
MAX_HEADER_COUNT = 128
MAX_BODY_BYTES = 64 * 1024 * 1024

REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class ProtocolError(Exception):
    """Malformed, truncated, or oversized HTTP framing on the wire."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class ConnectionClosedError(ProtocolError):
    """The peer vanished mid-exchange (reset, or close at a message edge).

    A distinct subclass because the two failures mean different things to
    a client: malformed framing is a bug, but a dropped connection is the
    expected transport signature of a server restart — retryable the same
    way a 503 is.
    """


@dataclass(slots=True)
class ParsedRequest:
    """One inbound request plus its connection semantics."""

    request: Request
    keep_alive: bool
    wire_bytes: int


@dataclass(slots=True)
class ParsedResponse:
    """One inbound response plus its connection semantics."""

    response: Response
    keep_alive: bool
    wire_bytes: int


class _CountingReader:
    """Wraps a StreamReader, counting bytes and normalizing errors."""

    __slots__ = ("_reader", "bytes_read")

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self.bytes_read = 0

    async def readline(self) -> bytes:
        try:
            line = await self._reader.readline()
        except ValueError as exc:  # stream limit overrun
            raise ProtocolError(f"header line too long: {exc}") from exc
        self.bytes_read += len(line)
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("header line too long")
        return line

    async def readexactly(self, n: int) -> bytes:
        try:
            data = await self._reader.readexactly(n)
        except asyncio.IncompleteReadError as exc:
            raise ConnectionClosedError(
                "connection closed inside message body"
            ) from exc
        self.bytes_read += len(data)
        return data

    async def read_to_eof(self) -> bytes:
        data = await self._reader.read(-1)
        self.bytes_read += len(data)
        return data


# -- header / cookie helpers ---------------------------------------------------


def parse_cookie_header(value: str) -> dict[str, str]:
    """``"uid=u1; theme=dark"`` → ``{"uid": "u1", "theme": "dark"}``."""
    cookies: dict[str, str] = {}
    for pair in value.split(";"):
        name, sep, val = pair.strip().partition("=")
        if sep and name:
            cookies[name] = val
    return cookies


def render_cookie_header(cookies: dict[str, str]) -> str:
    """Inverse of :func:`parse_cookie_header`."""
    return "; ".join(f"{name}={value}" for name, value in cookies.items())


def body_digest(body: bytes) -> str:
    """The ``X-Body-Digest`` value for a response body."""
    return f"adler32={checksum(body):08x}"


def digest_matches(header_value: str | None, body: bytes) -> bool:
    """Whether a received body matches its advertised digest header."""
    return header_value is not None and header_value == body_digest(body)


def _keep_alive(version: str, headers: Headers) -> bool:
    connection = (headers.get("Connection") or "").lower()
    if version == "HTTP/1.0":
        return "keep-alive" in connection
    return "close" not in connection


_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def _strict_int(token: str, what: str, *, base: int = 10) -> int:
    """Parse a framing number made of ASCII (hex) digits only.

    ``int()`` also takes a sign, underscores, surrounding whitespace, a
    ``0x`` prefix and non-ASCII digits; a proxy and its upstream reading
    one length two ways is the request-smuggling class, so none pass.
    """
    if base == 16:
        valid = bool(token) and _HEX_DIGITS.issuperset(token)
    else:
        valid = token.isascii() and token.isdigit()
    if not valid:
        raise ProtocolError(f"bad {what} {token!r}")
    return int(token, base)


async def _read_headers(reader: _CountingReader) -> Headers:
    headers = Headers()
    count = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            raise ConnectionClosedError("connection closed inside headers")
        count += 1
        if count > MAX_HEADER_COUNT:
            raise ProtocolError("too many header lines")
        text = line.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line {text!r}")
        # Optional whitespace is SP / HTAB; str.strip() would also eat
        # \x85 and \xa0 and let "\xa05" through as a length.
        headers.set(name.strip(), value.strip(" \t"))


async def _read_chunked(reader: _CountingReader) -> bytes:
    body = bytearray()
    while True:
        line = await reader.readline()
        if not line:
            raise ConnectionClosedError("connection closed inside chunked body")
        size_token = line.rstrip(b"\r\n").split(b";", 1)[0]
        size = _strict_int(size_token.decode("latin-1"), "chunk size", base=16)
        if len(body) + size > MAX_BODY_BYTES:
            raise ProtocolError("chunked body too large")
        if size == 0:
            # Trailer section: consume until the terminating blank line.
            while True:
                trailer = await reader.readline()
                if trailer in (b"\r\n", b"\n", b""):
                    return bytes(body)
            # not reached
        body += await reader.readexactly(size)
        if await reader.readexactly(2) != b"\r\n":
            raise ProtocolError("chunk data not CRLF-terminated")


async def _read_body(
    reader: _CountingReader, headers: Headers, *, eof_delimited_ok: bool = False
) -> bytes:
    transfer = (headers.get("Transfer-Encoding") or "").lower()
    if "chunked" in transfer:
        return await _read_chunked(reader)
    length_value = headers.get("Content-Length")
    if length_value is not None:
        length = _strict_int(length_value, "Content-Length")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(f"unacceptable Content-Length {length}", status=413)
        return await reader.readexactly(length) if length else b""
    if eof_delimited_ok:
        # HTTP/1.0-style close-delimited response body.
        return await reader.read_to_eof()
    return b""


# -- server side: requests in, responses out -----------------------------------


async def read_request(reader: asyncio.StreamReader) -> ParsedRequest | None:
    """Parse one request; ``None`` on clean EOF before any request byte."""
    counting = _CountingReader(reader)
    line = await counting.readline()
    if line in (b"\r\n", b"\n"):
        # Tolerate a stray blank line between pipelined requests (RFC 7230 §3.5).
        line = await counting.readline()
    if not line:
        return None
    text = line.decode("latin-1").strip()
    parts = text.split()
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line {text!r}")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise ProtocolError(f"unsupported protocol version {version!r}")
    headers = await _read_headers(counting)
    keep_alive = _keep_alive(version, headers)
    body = await _read_body(counting, headers)  # read (and discard) for framing
    del body
    if "://" in target:
        # absolute-form target (proxy style): the URL is already complete
        url = target.split("://", 1)[1]
    else:
        host = headers.get("Host")
        if host is None:
            raise ProtocolError("missing Host header")
        if not target.startswith("/"):
            raise ProtocolError(f"malformed request target {target!r}")
        url = f"{host}{target}"
    cookies = parse_cookie_header(headers.get("Cookie", "") or "")
    request = Request(
        url=url,
        method=method,
        headers=headers,
        cookies=cookies,
        client_id=cookies.get("uid", "anonymous"),
    )
    return ParsedRequest(request, keep_alive, counting.bytes_read)


def serialize_response(
    response: Response,
    *,
    keep_alive: bool = True,
    chunked: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> bytes:
    """Render a :class:`Response` as HTTP/1.1 wire bytes."""
    reason = REASONS.get(response.status, "Unknown")
    out = bytearray(f"{HTTP_VERSION} {response.status} {reason}\r\n".encode("latin-1"))
    owned = {"content-length", "transfer-encoding", "connection"}
    for name, value in response.headers.items():
        if name.lower() in owned:
            continue
        out += f"{name}: {value}\r\n".encode("latin-1")
    out += b"Connection: keep-alive\r\n" if keep_alive else b"Connection: close\r\n"
    body = response.body
    if chunked:
        out += b"Transfer-Encoding: chunked\r\n\r\n"
        for start in range(0, len(body), chunk_size):
            chunk = body[start : start + chunk_size]
            out += f"{len(chunk):x}\r\n".encode("latin-1") + chunk + b"\r\n"
        out += b"0\r\n\r\n"
    else:
        out += f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1") + body
    return bytes(out)


# -- client side: requests out, responses in -----------------------------------


def serialize_request(request: Request, *, keep_alive: bool = True) -> bytes:
    """Render a :class:`Request` as HTTP/1.1 wire bytes."""
    server, remainder = split_server(request.url)
    lines = [f"{request.method} /{remainder} {HTTP_VERSION}", f"Host: {server}"]
    skipped = {"host", "connection", "cookie", "content-length", "transfer-encoding"}
    for name, value in request.headers.items():
        if name.lower() in skipped:
            continue
        lines.append(f"{name}: {value}")
    if request.cookies:
        lines.append(f"Cookie: {render_cookie_header(request.cookies)}")
    if not keep_alive:
        lines.append("Connection: close")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


async def read_response(reader: asyncio.StreamReader) -> ParsedResponse:
    """Parse one response off a client connection."""
    counting = _CountingReader(reader)
    line = await counting.readline()
    if not line:
        raise ConnectionClosedError("connection closed before status line")
    text = line.decode("latin-1").strip()
    parts = text.split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise ProtocolError(f"malformed status line {text!r}")
    status = _strict_int(parts[1], "status code")
    if not 100 <= status <= 599:
        raise ProtocolError(f"bad status code {status}")
    headers = await _read_headers(counting)
    keep_alive = _keep_alive(parts[0], headers)
    body = await _read_body(counting, headers, eof_delimited_ok=not keep_alive)
    response = Response(status=status, body=body, headers=headers)
    cache_control = headers.get(HEADER_CACHE_CONTROL, "") or ""
    if "public" in cache_control or "max-age" in cache_control:
        response.cachable = True
    return ParsedResponse(response, keep_alive, counting.bytes_read)
