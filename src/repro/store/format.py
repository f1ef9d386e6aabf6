"""On-disk record framing shared by the pack and the journal.

Both store files are append-only sequences of self-checking frames after
a small fixed header::

    header   magic (4 bytes) | u32 format version
    frame    u32 payload length | u32 crc32(payload) | payload bytes

The frame is the unit of crash-atomicity: a crash (or a fault-injection
test) can tear a file at any byte offset, and recovery must be able to
identify the longest *valid prefix* of frames and discard everything
after it.  :func:`scan_frames` implements exactly that contract — it
never raises on torn or corrupted input, it just stops, reporting where
the valid prefix ends so the caller can truncate.

The CRC is over the payload only (not the length word); a corrupted
length field is caught either by the sanity cap or by the CRC of the
mis-framed payload it implies — both end the valid prefix, which is the
correct, conservative answer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

#: ``(payload_length, payload_crc32)`` frame header
FRAME_HEADER = struct.Struct(">II")

#: ``magic | format version`` file header
FILE_HEADER = struct.Struct(">4sI")

FORMAT_VERSION = 1

#: frames beyond this are treated as corruption, not data (a single
#: base-file snapshot or delta should never approach it)
MAX_FRAME_PAYLOAD = 256 * 1024 * 1024


class StoreFormatError(Exception):
    """A store file is not what its header claims to be."""


def frame_crc(payload: bytes) -> int:
    return zlib.crc32(payload) & 0xFFFFFFFF


def frame_size(payload_length: int) -> int:
    """Total on-disk bytes one frame of ``payload_length`` occupies."""
    return FRAME_HEADER.size + payload_length


def write_header(fh: BinaryIO, magic: bytes) -> None:
    fh.write(FILE_HEADER.pack(magic, FORMAT_VERSION))


def check_header(data: bytes, magic: bytes, path: str = "") -> None:
    """Validate a file header; raises :class:`StoreFormatError`."""
    if len(data) < FILE_HEADER.size:
        raise StoreFormatError(f"{path or 'store file'}: truncated header")
    found_magic, version = FILE_HEADER.unpack_from(data)
    if found_magic != magic:
        raise StoreFormatError(
            f"{path or 'store file'}: bad magic {found_magic!r}, want {magic!r}"
        )
    if version != FORMAT_VERSION:
        raise StoreFormatError(
            f"{path or 'store file'}: format version {version}, "
            f"this build reads {FORMAT_VERSION}"
        )


def write_frame(fh: BinaryIO, payload: bytes) -> int:
    """Append one frame; returns the number of bytes written."""
    fh.write(FRAME_HEADER.pack(len(payload), frame_crc(payload)))
    fh.write(payload)
    return frame_size(len(payload))


def frame_payload(data: bytes, offset: int, length: int) -> bytes:
    """CRC-verified payload of the ``length``-byte frame at ``offset``.

    The one addressed-frame check: :meth:`Pack.read` runs it on the bytes
    it just read, recovery on the pack's file image.  Raises
    :class:`StoreFormatError` naming what is wrong with the frame.
    """
    if offset < 0 or length < FRAME_HEADER.size or offset + length > len(data):
        raise StoreFormatError(
            f"wanted a {length}-byte frame, {max(len(data) - offset, 0)} bytes there"
        )
    payload_length, crc = FRAME_HEADER.unpack_from(data, offset)
    if frame_size(payload_length) != length:
        raise StoreFormatError(
            f"header says {payload_length} payload bytes, frame is {length}"
        )
    payload = data[offset + FRAME_HEADER.size : offset + length]
    if frame_crc(payload) != crc:
        raise StoreFormatError("CRC mismatch")
    return payload


@dataclass(slots=True)
class ScannedFrame:
    """One valid frame found by :func:`scan_frames`."""

    offset: int  # file offset of the frame header
    payload: bytes

    @property
    def end(self) -> int:
        return self.offset + frame_size(len(self.payload))


def scan_frames(data: bytes, start: int) -> tuple[list[ScannedFrame], int]:
    """Walk frames from ``start``; return ``(frames, valid_end)``.

    Stops — without raising — at the first torn or corrupted frame:
    truncated header, truncated payload, implausible length, or CRC
    mismatch.  ``valid_end`` is the offset just past the last good frame
    (== ``start`` when none are), i.e. the truncation point recovery
    should apply.
    """
    frames: list[ScannedFrame] = []
    pos = start
    while pos + FRAME_HEADER.size <= len(data):
        length, _ = FRAME_HEADER.unpack_from(data, pos)
        if length > MAX_FRAME_PAYLOAD:
            break
        try:
            payload = frame_payload(data, pos, frame_size(length))
        except StoreFormatError:
            break
        frames.append(ScannedFrame(offset=pos, payload=payload))
        pos += frame_size(length)
    return frames, pos
