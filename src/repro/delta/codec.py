"""Binary wire format for delta instruction streams.

A compact varint-based serialization in the spirit of VCDIFF (Korn & Vo,
cited by the paper as [12]).  Layout::

    magic    b"CBD1"
    varint   target_length
    varint   base_length
    uint32   adler32(target)       -- integrity check applied on decode
    repeated instructions:
        0x00  ADD:  varint length, <length> literal bytes
        0x01  COPY: varint offset, varint length

The checksum catches the classic delta-encoding deployment failure: applying
a delta to the wrong base-file version (e.g. a client whose cached base-file
predates a rebase).  :func:`repro.delta.apply.apply_delta` turns a checksum
mismatch into :class:`~repro.delta.errors.BaseMismatchError` so the caller
can fall back to a full-response fetch, as the architecture in Section VI-C
requires.

Decode bounds
-------------

The decoder treats the payload as attacker-controlled (it arrives over the
wire at clients and proxies) and enforces:

* **canonical, 63-bit varints** — a varint must be the shortest encoding of
  its value (no redundant ``0x80 0x00``-style continuations, so
  :func:`varint_size` always agrees with actual wire bytes) and must stay
  below ``2**63``; anything else raises :class:`CorruptDeltaError` instead
  of silently producing Python bigints.
* **a target-size ceiling** — ``max_target_length`` (default
  :data:`DEFAULT_MAX_TARGET_LENGTH`, 64 MiB) rejects payloads whose header
  or instruction stream would reconstruct more bytes than the caller is
  prepared to materialize.  A hostile 10-byte payload with a huge RUN
  length is refused at decode time, *before* :func:`repro.delta.apply.replay`
  would allocate gigabytes.  Pass ``max_target_length=None`` only for
  trusted, locally-generated payloads.
"""

from __future__ import annotations

import zlib

from repro.delta.errors import CorruptDeltaError
from repro.delta.instructions import Add, Copy, Instruction, Run, target_length

MAGIC = b"CBD1"

OP_ADD = 0x00
OP_COPY = 0x01
OP_RUN = 0x02

#: Hard ceiling on varint values: offsets and lengths live in 63 bits so
#: they can never overflow into values a signed 64-bit consumer (or a
#: future non-Python decoder) would misread.
VARINT_MAX = (1 << 63) - 1

#: Default decode-time bound on the reconstructed document size, shared by
#: the engine's document-size config
#: (:class:`repro.core.config.DeltaServerConfig.max_document_bytes`) and
#: every untrusted decode path (clients, proxies, the load generator).
DEFAULT_MAX_TARGET_LENGTH = 64 << 20


def write_varint(value: int, out: bytearray) -> None:
    """Append ``value`` as a LEB128-style varint (canonical encoding)."""
    if value < 0:
        raise ValueError(f"varint must be non-negative, got {value}")
    if value > VARINT_MAX:
        raise ValueError(f"varint exceeds the 63-bit wire range: {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """Read a varint at ``pos``; return ``(value, next_pos)``.

    Rejects non-canonical encodings (a redundant trailing ``0x00``
    continuation byte, e.g. ``0x80 0x00`` for 0) and values outside the
    63-bit range, so every decodable varint round-trips through
    :func:`write_varint` in exactly the same number of bytes.
    """
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CorruptDeltaError("truncated varint")
        byte = data[pos]
        pos += 1
        if byte == 0 and shift:
            # write_varint stops as soon as the remaining value is zero, so
            # a zero byte is only ever valid as a varint's sole byte.
            raise CorruptDeltaError("non-canonical varint (redundant zero byte)")
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > VARINT_MAX:
                raise CorruptDeltaError(
                    f"varint exceeds the 63-bit wire range: {result}"
                )
            return result, pos
        shift += 7
        if shift > 56:
            # 9 payload bytes carry 63 bits; a 10th byte can only encode
            # values >= 2**63 (or a non-canonical padding of a smaller one).
            raise CorruptDeltaError("varint too long")


def varint_size(value: int) -> int:
    """Number of bytes :func:`write_varint` emits for ``value``."""
    if value > VARINT_MAX:
        raise ValueError(f"varint exceeds the 63-bit wire range: {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


def encode_delta(
    instructions: list[Instruction], base_length: int, target_checksum: int
) -> bytes:
    """Serialize an instruction stream to the wire format."""
    out = bytearray(MAGIC)
    write_varint(target_length(instructions), out)
    write_varint(base_length, out)
    out += target_checksum.to_bytes(4, "big")
    for instr in instructions:
        if isinstance(instr, Add):
            out.append(OP_ADD)
            write_varint(len(instr.data), out)
            out += instr.data
        elif isinstance(instr, Run):
            out.append(OP_RUN)
            out.append(instr.byte)
            write_varint(instr.length, out)
        else:
            out.append(OP_COPY)
            write_varint(instr.offset, out)
            write_varint(instr.length, out)
    return bytes(out)


def decode_delta(
    payload: bytes,
    *,
    max_target_length: int | None = DEFAULT_MAX_TARGET_LENGTH,
) -> tuple[list[Instruction], int, int, int]:
    """Parse the wire format.

    Returns ``(instructions, target_length, base_length, target_checksum)``.
    Raises :class:`CorruptDeltaError` on any structural inconsistency.

    ``max_target_length`` bounds both the declared target length and the
    bytes the instruction stream produces, so a hostile payload (e.g. a
    tiny RUN with an enormous length) is rejected here instead of
    triggering a giant allocation in :func:`repro.delta.apply.replay`.
    Defaults to :data:`DEFAULT_MAX_TARGET_LENGTH`; ``None`` disables the
    bound for trusted, locally-generated payloads.
    """
    if payload[: len(MAGIC)] != MAGIC:
        raise CorruptDeltaError(f"bad magic {payload[:4]!r}")
    pos = len(MAGIC)
    tlen, pos = read_varint(payload, pos)
    blen, pos = read_varint(payload, pos)
    if max_target_length is not None and tlen > max_target_length:
        raise CorruptDeltaError(
            f"target length {tlen} exceeds bound {max_target_length}"
        )
    if pos + 4 > len(payload):
        raise CorruptDeltaError("truncated checksum")
    checksum = int.from_bytes(payload[pos : pos + 4], "big")
    pos += 4
    instructions: list[Instruction] = []
    produced = 0
    while pos < len(payload):
        if produced > tlen:
            # Bail before parsing further instructions: the stream already
            # overran its own header, so it can only be corrupt (and a RUN
            # overrun could otherwise claim an unbounded produced total).
            raise CorruptDeltaError(
                f"instructions produce more than the declared {tlen} bytes"
            )
        op = payload[pos]
        pos += 1
        if op == OP_ADD:
            length, pos = read_varint(payload, pos)
            if length == 0 or pos + length > len(payload):
                raise CorruptDeltaError("bad ADD length")
            instructions.append(Add(payload[pos : pos + length]))
            pos += length
            produced += length
        elif op == OP_COPY:
            offset, pos = read_varint(payload, pos)
            length, pos = read_varint(payload, pos)
            if length == 0 or offset + length > blen:
                raise CorruptDeltaError(
                    f"COPY [{offset}, {offset + length}) outside base of {blen}"
                )
            instructions.append(Copy(offset, length))
            produced += length
        elif op == OP_RUN:
            if pos >= len(payload):
                raise CorruptDeltaError("truncated RUN byte")
            byte = payload[pos]
            pos += 1
            length, pos = read_varint(payload, pos)
            if length == 0:
                raise CorruptDeltaError("bad RUN length")
            instructions.append(Run(byte, length))
            produced += length
        else:
            raise CorruptDeltaError(f"unknown opcode {op:#x}")
    if produced != tlen:
        raise CorruptDeltaError(
            f"instructions produce {produced} bytes, header says {tlen}"
        )
    return instructions, tlen, blen, checksum


def encoded_size(instructions: list[Instruction], base_length: int) -> int:
    """Exact wire size the stream would serialize to, without serializing.

    Used by the grouping estimator and the base-file selection algorithm,
    which only need delta *sizes*, many times per request.
    """
    size = len(MAGIC) + 4  # magic + checksum
    produced = 0
    for instr in instructions:
        if isinstance(instr, Add):
            size += 1 + varint_size(len(instr.data)) + len(instr.data)
            produced += len(instr.data)
        elif isinstance(instr, Run):
            size += 2 + varint_size(instr.length)
            produced += instr.length
        else:
            size += 1 + varint_size(instr.offset) + varint_size(instr.length)
            produced += instr.length
    size += varint_size(produced) + varint_size(base_length)
    return size


def checksum(data: bytes) -> int:
    """Adler-32 checksum used for target/base integrity tags."""
    return zlib.adler32(data) & 0xFFFFFFFF
