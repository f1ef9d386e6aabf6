"""Vdelta-style delta encoder with a zero-copy streaming wire kernel.

The paper (footnote 2 and Section V) describes the differ it builds on:

    "*Vdelta* uses a hash table approach with enough indexes into the
    base-file for fast string matching.  Each index is a position which is
    keyed by the four bytes starting at that position.  Thus, the file is
    partitioned in four-byte-chunks.  Further, in order to identify the
    maximally long matching prefix, the algorithm traverses the file both
    forwards and backwards."

:class:`VdeltaEncoder` reproduces that structure:

* every position of the base-file is indexed in a hash table keyed by the
  ``chunk_size`` (default 4) bytes starting at that position — a key that
  occurs once maps straight to its position, only a repeated key carries a
  chain of positions (see :class:`BaseIndex`);
* at each target position the encoder probes the table, extends candidate
  matches *forwards* maximally, picks the longest, and then extends the
  chosen match *backwards* into literal bytes it had provisionally queued as
  an ADD — the "traverses the file both forwards and backwards" step;
* unmatched bytes become ADD literals.

The encoder is deliberately greedy and single-pass, like Vdelta, so its cost
is close to linear in the target size for realistic web documents.

Streaming wire kernel
---------------------

The hot path (:meth:`VdeltaEncoder.encode_wire_with_index` /
:meth:`~VdeltaEncoder.encode_stream_with_index`) emits wire bytes directly
into a caller-supplied reusable ``bytearray`` as the greedy scan runs —
no intermediate ``list[Instruction]``, no per-instruction objects, no
separate serialization pass.  The design is allocation-frugal:

* **candidate filtering without copies** — the old kernel sliced
  ``candidates[-max_candidates:]`` (a list copy per probe) and ran a full
  match extension per surviving candidate; the kernel walks the chain tail
  by index and rejects any candidate that cannot *beat* the current best
  with a single ``bytes.startswith(needed, offset)`` call, where ``needed``
  is the shortest prefix a strictly-longer match must have.  ``startswith``
  with an offset compares in place — no slice of the base is materialized.
* **zero-copy match extension** — forward extension compares geometrically
  growing target windows against the base via ``startswith(piece, offset)``
  (the base side is never sliced).  Measured against ``memoryview``-based
  extension (the other obvious zero-copy shape), ``startswith`` won by
  ~2.6x at large windows: CPython's memoryview richcompare is slower than
  ``bytes`` comparisons, so "zero-copy" here means *no base-side slicing*,
  not memoryview wrappers.
* **``bytes`` chunk keys, kept deliberately** — int-keyed chunk hashing
  (``int.from_bytes`` rolling keys) was benchmarked and *lost* to 4-byte
  slice keys (~1.7x slower key production; dict lookup no faster), because
  CPython interns small bytes hashing in C while the rolling-hash arithmetic
  pays Python bytecode per position.  The per-probe allocations the issue
  tracked are gone either way: the probe key is the only slice per position.
* **index containers the cyclic GC never sees** — the table used to hold
  one ``list`` per key, and a ``list`` is GC-tracked however little it
  holds: a light index over a 34 KB page was 4,200 one-element lists, the
  engine's 64-entry light-index LRU kept ~270k of them alive, and every
  index build allocated thousands more containers, forcing young
  collections and periodic full collections that re-traversed all of them
  (a third of engine time on the end-to-end benchmark, and its 50–150 ms
  ``classify`` outliers).  A single-occurrence key now stores a bare
  ``int`` — a ``dict`` of ``bytes`` → ``int`` is not tracked at all — so an
  index costs the collector one object per *repeated* key.  Chains stay
  ``list``: ``array('i')`` chains shrink a full index 2.1 → 0.7 MB but are
  just as tracked on CPython 3.11 and build 1.2–1.3x slower; packing the
  chains into one flat array afterwards (3 tracked objects, 0.56 MB) costs
  the full-geometry build +25–30 %; a flat ``prev`` array +45–65 %
  (DESIGN.md §4 has the table).  Candidate set, probe order and the chain
  cap are unchanged, so the wire is byte-identical.
* **single-pass emission** — COPY fusion and RUN extraction (the old
  ``coalesce`` + ``optimize_runs`` passes) happen inline at literal-flush
  time, so the wire bytes produced are *identical* to the old
  ``encode_delta(optimize_runs(coalesce(scan)))`` pipeline; the benchmark
  gate asserts byte parity against a frozen snapshot of the old kernel.
* **streaming compression** — :meth:`~VdeltaEncoder.encode_stream_with_index`
  hands the buffer to a ``write`` callback every ``flush_bytes`` (default
  64 KiB) so large documents never materialize their full uncompressed wire
  image; the engine points ``write`` at ``zlib.compressobj.compress``.

The instruction-object API (:meth:`VdeltaEncoder.encode` /
:meth:`~VdeltaEncoder.encode_with_index`) survives for the consumers that
genuinely need instructions — the anonymizer's coverage accounting, the
grouping baselines, tests — and is now decode-backed: it wire-encodes and
parses the result back, which keeps it consistent with the wire path by
construction.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.delta.codec import (
    MAGIC,
    OP_ADD,
    OP_COPY,
    OP_RUN,
    decode_delta,
    write_varint,
)
from repro.delta.instructions import MIN_RUN, Copy, Instruction, run_pattern

# Probing every candidate position for a popular 4-byte key (e.g. "<td>")
# would be quadratic on repetitive HTML; Vdelta bounds this with its chain
# layout, we bound it with an explicit cap on candidates per key.
_DEFAULT_MAX_CHAIN = 64

# Stop probing further candidates once a match this long is found: longer
# alternatives save a few wire bytes at most, and probing dominates cost.
_GOOD_ENOUGH_MATCH = 2048

# Streaming flush threshold: large enough that zlib sees meaty chunks,
# small enough that a multi-megabyte document never materializes its full
# uncompressed wire image.
DEFAULT_FLUSH_BYTES = 64 * 1024


@dataclass(frozen=True, slots=True)
class MatchStats:
    """Diagnostics from one encode pass."""

    copies: int
    adds: int
    copied_bytes: int
    added_bytes: int

    @property
    def match_ratio(self) -> float:
        """Fraction of target bytes sourced from the base-file."""
        total = self.copied_bytes + self.added_bytes
        return self.copied_bytes / total if total else 1.0


@dataclass(slots=True)
class EncodeResult:
    """Instruction stream plus statistics for one (base, target) pair."""

    instructions: list[Instruction]
    stats: MatchStats


class BaseIndex:
    """Hash index of a base-file: positions keyed by byte chunks.

    Built once per base-file and reused across every target diffed against
    it — on the delta-server one base-file serves a whole class of
    documents, so amortizing the index matters.  ``table`` maps a chunk
    that occurs once to its position (an ``int``) and a repeated chunk to
    the ascending ``list`` of its first ``max_chain`` positions, so the
    index holds one GC-tracked container per repeated key instead of one
    per key (module docstring).  The kernel reads ``table`` directly: one
    dict ``get`` per target position, no method dispatch.
    """

    __slots__ = ("base", "chunk_size", "step", "table", "max_chain")

    def __init__(
        self,
        base: bytes,
        chunk_size: int = 4,
        step: int = 1,
        max_chain: int = _DEFAULT_MAX_CHAIN,
    ) -> None:
        if chunk_size < 2:
            raise ValueError(f"chunk_size must be >= 2, got {chunk_size}")
        if step < 1:
            raise ValueError(f"step must be >= 1, got {step}")
        self.base = base
        self.chunk_size = chunk_size
        self.step = step
        self.max_chain = max_chain
        table: dict[bytes, int | list[int]] = {}
        get = table.get
        for pos in range(0, len(base) - chunk_size + 1, step):
            key = base[pos : pos + chunk_size]
            entry = get(key)
            if entry is None:
                table[key] = pos
            elif entry.__class__ is int:
                if max_chain > 1:
                    table[key] = [entry, pos]
            elif len(entry) < max_chain:
                entry.append(pos)
        self.table = table

    def __len__(self) -> int:
        return len(self.table)


@dataclass(slots=True)
class VdeltaEncoder:
    """Greedy chunk-hash delta encoder in the style of Vdelta.

    Parameters
    ----------
    chunk_size:
        Bytes per hash key.  Vdelta uses 4; the paper's "light" variant uses
        larger chunks (see :mod:`repro.delta.light`).
    min_match:
        Shortest COPY worth emitting.  A COPY costs a handful of wire bytes,
        so matches shorter than that are cheaper as literals.
    backward:
        Whether to extend matches backwards into queued literals ("traverses
        the file both forwards and backwards").  The light variant disables
        this.
    step:
        Index every ``step``-th base position.  1 indexes every position
        (full Vdelta); the light variant samples.
    max_candidates:
        How many index candidates to try per probe before settling for the
        best found so far; bounds worst-case cost on repetitive input.
    """

    chunk_size: int = 4
    min_match: int = 8
    backward: bool = True
    step: int = 1
    max_candidates: int = 8
    max_chain: int = field(default=_DEFAULT_MAX_CHAIN)

    def __post_init__(self) -> None:
        if self.min_match < self.chunk_size:
            raise ValueError(
                f"min_match ({self.min_match}) must be >= chunk_size "
                f"({self.chunk_size}): shorter matches can never be probed"
            )
        if self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )

    def index(self, base: bytes) -> BaseIndex:
        """Build a reusable hash index for ``base``."""
        return BaseIndex(
            base, chunk_size=self.chunk_size, step=self.step, max_chain=self.max_chain
        )

    # ------------------------------------------------------------------
    # Wire kernel (the hot path)
    # ------------------------------------------------------------------

    def encode_wire_with_index(
        self,
        index: BaseIndex,
        target: bytes,
        target_checksum: int | None = None,
        *,
        out: bytearray | None = None,
    ) -> bytearray:
        """Encode ``target`` against a prebuilt index directly to wire bytes.

        Returns the complete serialized delta (the same bytes
        :func:`repro.delta.codec.encode_delta` would produce for the
        instruction stream) in ``out`` — pass a reused ``bytearray`` to
        avoid reallocating the buffer per encode; it is cleared first.
        """
        if out is None:
            out = bytearray()
        else:
            del out[:]
        if target_checksum is None:
            target_checksum = zlib.adler32(target) & 0xFFFFFFFF
        self._scan_to_wire(index, target, target_checksum, out, None, 0)
        return out

    def encode_stream_with_index(
        self,
        index: BaseIndex,
        target: bytes,
        write: Callable[[bytes], object],
        target_checksum: int | None = None,
        *,
        buffer: bytearray | None = None,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
    ) -> int:
        """Encode to wire bytes, streaming them through ``write``.

        ``write`` is called with chunks of roughly ``flush_bytes`` as the
        scan proceeds (the engine points it at ``zlib.compressobj.compress``
        so the uncompressed wire image is never materialized whole).  The
        chunk passed to ``write`` is a reused buffer only valid for the
        duration of the call — consume or copy it, do not retain it.
        Returns the total wire size in bytes.
        """
        if buffer is None:
            buffer = bytearray()
        else:
            del buffer[:]
        if target_checksum is None:
            target_checksum = zlib.adler32(target) & 0xFFFFFFFF
        return self._scan_to_wire(
            index, target, target_checksum, buffer, write, flush_bytes
        )

    def _scan_to_wire(
        self,
        index: BaseIndex,
        target: bytes,
        target_checksum: int,
        out: bytearray,
        write: Callable[[bytes], object] | None,
        flush_bytes: int,
    ) -> int:
        """The greedy scan, emitting wire bytes as matches are found.

        Byte-for-byte equivalent to the pre-streaming pipeline
        ``encode_delta(optimize_runs(coalesce(scan)))``: contiguous COPYs
        are fused as they are emitted and RUN extraction happens when a
        pending literal is flushed.  Returns the total wire size.
        """
        if index.chunk_size != self.chunk_size:
            raise ValueError(
                f"index chunk_size {index.chunk_size} != encoder chunk_size "
                f"{self.chunk_size}"
            )
        base = index.base
        table_get = index.table.get
        chunk = self.chunk_size
        min_match = self.min_match
        max_candidates = self.max_candidates
        backward = self.backward
        good_enough = _GOOD_ENOUGH_MATCH
        n = len(target)
        n_base = len(base)
        base_startswith = base.startswith
        append = out.append
        written = 0

        # Header: every field is known up front (target length is just
        # len(target) — the scan always reproduces the whole target), so
        # the kernel is truly single-pass.
        out += MAGIC
        write_varint(n, out)
        write_varint(n_base, out)
        out += target_checksum.to_bytes(4, "big")

        copy_off = 0
        copy_len = 0  # pending COPY awaiting possible fusion
        literal_start = 0  # start of the pending ADD run in the target
        pos = 0

        while pos + chunk <= n:
            entry = table_get(target[pos : pos + chunk])
            if entry is None:
                pos += 1
                continue

            # --- best match among the chain tail (no list copy) --------
            # A key seen once in the base maps straight to its position;
            # only a repeated key carries a chain.  Recent positions tend
            # to be better for evolving documents, so a chain is probed
            # from its end, at most ``max_candidates`` deep.
            if entry.__class__ is int:
                cand = entry
                j = stop = 0
            else:
                j = len(entry) - 1
                stop = j - max_candidates + 1
                if stop < 0:
                    stop = 0
                cand = entry[j]
            remaining = n - pos
            # `needed` is the shortest prefix a candidate must share to
            # *beat* the best match so far; one startswith call rejects
            # losers without any extension work.  Initially that is the
            # min_match prefix (shorter matches are discarded anyway).
            needed = target[pos : pos + min_match] if remaining >= min_match else target[pos:]
            best_off = -1
            best_len = 0
            while True:
                if base_startswith(needed, cand):
                    # Forward extension: geometric windows compared in
                    # place via startswith(piece, offset), bisect inside
                    # the first differing window.  Computes the exact
                    # common prefix.
                    length = len(needed)
                    max_len = n_base - cand
                    if remaining < max_len:
                        max_len = remaining
                    step = 16
                    while length < max_len:
                        window = max_len - length
                        if window > step:
                            window = step
                        piece = target[pos + length : pos + length + window]
                        if base_startswith(piece, cand + length):
                            length += window
                            if step < 16384:
                                step *= 4
                            continue
                        lo, hi = 0, window
                        while lo < hi:
                            mid = (lo + hi + 1) // 2
                            if base_startswith(piece[:mid], cand + length):
                                lo = mid
                            else:
                                hi = mid - 1
                        length += lo
                        break
                    # Passing the `needed` filter guarantees a strictly
                    # longer match than the current best.
                    best_len = length
                    best_off = cand
                    if best_len >= good_enough or best_len >= remaining:
                        break
                    needed = target[pos : pos + best_len + 1]
                if j <= stop:
                    break
                j -= 1
                cand = entry[j]
            if best_len < min_match:
                pos += 1
                continue

            # --- backward extension into the pending literal -----------
            if backward:
                b_off = best_off
                p = pos
                while (
                    b_off > 0
                    and p > literal_start
                    and base[b_off - 1] == target[p - 1]
                ):
                    b_off -= 1
                    p -= 1
                best_len += pos - p
                best_off = b_off
                pos = p

            # --- emit ---------------------------------------------------
            if pos > literal_start:
                if copy_len:
                    append(OP_COPY)
                    write_varint(copy_off, out)
                    write_varint(copy_len, out)
                    copy_len = 0
                _emit_literal(target, literal_start, pos, out)
            if copy_len:
                if copy_off + copy_len == best_off:
                    # Contiguous COPYs fuse (what coalesce() used to do).
                    copy_len += best_len
                else:
                    append(OP_COPY)
                    write_varint(copy_off, out)
                    write_varint(copy_len, out)
                    copy_off = best_off
                    copy_len = best_len
            else:
                copy_off = best_off
                copy_len = best_len
            pos += best_len
            literal_start = pos

            if write is not None and len(out) >= flush_bytes:
                written += len(out)
                write(out)
                del out[:]

        # --- tail -------------------------------------------------------
        if copy_len:
            append(OP_COPY)
            write_varint(copy_off, out)
            write_varint(copy_len, out)
        if literal_start < n:
            _emit_literal(target, literal_start, n, out)
        if write is None:
            return len(out)
        written += len(out)
        if out:
            write(out)
            del out[:]
        return written

    # ------------------------------------------------------------------
    # Instruction-object API (decode-backed, for inspecting consumers)
    # ------------------------------------------------------------------

    def encode(self, base: bytes, target: bytes) -> EncodeResult:
        """Diff ``target`` against ``base``; convenience for one-shot use."""
        return self.encode_with_index(self.index(base), target)

    def encode_with_index(self, index: BaseIndex, target: bytes) -> EncodeResult:
        """Diff ``target`` against a prebuilt base index.

        Runs the wire kernel and parses the result back into instruction
        objects — the consumers that need instructions (anonymization
        coverage, grouping baselines, tests) are off the hot path, and
        decode-backing guarantees the two representations can never drift.
        """
        wire = self.encode_wire_with_index(index, target)
        instructions, _, _, _ = decode_delta(bytes(wire), max_target_length=None)
        copies = 0
        copied = 0
        for instr in instructions:
            if type(instr) is Copy:
                copies += 1
                copied += instr.length
        return EncodeResult(
            instructions=instructions,
            stats=MatchStats(
                copies=copies,
                adds=len(instructions) - copies,
                copied_bytes=copied,
                added_bytes=len(target) - copied,
            ),
        )


def _emit_literal(target: bytes, start: int, end: int, out: bytearray) -> None:
    """Emit ``target[start:end]`` as ADD/RUN wire ops (run extraction inline).

    Splits long single-byte stretches out as RUNs exactly like
    :func:`repro.delta.instructions.optimize_runs` did on the old
    instruction stream, preserving byte parity with the old pipeline.
    """
    data = target[start:end]
    seg_start = 0
    n = len(data)
    if n >= MIN_RUN:
        for match in _run_finditer(data):
            i, j = match.span()
            if i > seg_start:
                out.append(OP_ADD)
                write_varint(i - seg_start, out)
                out += data[seg_start:i]
            out.append(OP_RUN)
            out.append(data[i])
            write_varint(j - i, out)
            seg_start = j
    if seg_start < n:
        out.append(OP_ADD)
        write_varint(n - seg_start, out)
        out += data if seg_start == 0 else data[seg_start:]


_run_finditer = run_pattern().finditer
