"""The pack file: append-only payload storage for base-file versions.

A pack holds opaque payload frames — zlib-compressed full snapshots and
zlib-compressed vdelta wire bytes — addressed by ``(offset, length)``
pairs recorded in the journal.  The pack itself carries no metadata
beyond the per-frame CRC: the journal is the authority on what each
frame *means* (which class, which version, full or delta, whose parent).

Reads go through :func:`os.pread` so they never disturb the append
position, and every read re-checks the frame CRC — a base-file payload
that rotted on disk is detected at the pack boundary, before the delta
chain math ever sees it.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.store.format import (
    FILE_HEADER,
    StoreFormatError,
    check_header,
    frame_payload,
    write_frame,
    write_header,
)

PACK_MAGIC = b"RPK1"


class PackCorruptionError(Exception):
    """A pack frame failed its CRC or framing on read."""


class Pack:
    """One append-only pack file."""

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        exists = self.path.exists() and self.path.stat().st_size > 0
        self._fh = open(self.path, "ab")
        if not exists:
            write_header(self._fh, PACK_MAGIC)
            self.sync()
        else:
            with open(self.path, "rb") as fh:
                check_header(fh.read(FILE_HEADER.size), PACK_MAGIC, str(self.path))
        self._read_fd = os.open(self.path, os.O_RDONLY)

    @property
    def end(self) -> int:
        """Current append offset (== file size once flushed)."""
        self._fh.flush()
        return self._fh.tell()

    def append(self, payload: bytes, *, sync: bool) -> tuple[int, int]:
        """Append one payload frame; returns ``(offset, frame_length)``."""
        self._fh.flush()
        offset = self._fh.tell()
        length = write_frame(self._fh, payload)
        if sync:
            self.sync()
        else:
            self._fh.flush()
        return offset, length

    def read(self, offset: int, length: int) -> bytes:
        """Read + CRC-verify the payload of the frame at ``offset``."""
        self._fh.flush()
        raw = os.pread(self._read_fd, length, offset)
        try:
            return frame_payload(raw, 0, length)
        except StoreFormatError as exc:
            raise PackCorruptionError(f"pack frame at {offset}: {exc}") from None

    def verify(self, offset: int, length: int) -> bool:
        """True when the frame at ``offset`` reads back clean."""
        try:
            self.read(offset, length)
        except PackCorruptionError:
            return False
        return True

    def sync(self) -> None:
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
        if self._read_fd >= 0:
            os.close(self._read_fd)
            self._read_fd = -1
