"""Unit and property tests for the Vdelta-style encoder."""

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.apply import apply_delta, replay
from repro.delta.instructions import Add, Copy
from repro.delta.vdelta import BaseIndex, VdeltaEncoder


def roundtrip(base: bytes, target: bytes, **kwargs) -> None:
    encoder = VdeltaEncoder(**kwargs)
    result = encoder.encode(base, target)
    assert replay(result.instructions, base) == target


class TestEncodeBasics:
    def test_identical_documents_one_copy(self):
        base = b"the quick brown fox jumps over the lazy dog" * 4
        result = VdeltaEncoder().encode(base, base)
        assert result.instructions == [Copy(0, len(base))]
        assert result.stats.match_ratio == 1.0

    def test_unrelated_documents_all_add(self):
        base = b"a" * 100
        target = b"z" * 100
        result = VdeltaEncoder().encode(base, target)
        # a single-byte target compresses to one RUN instruction
        from repro.delta.instructions import Run

        assert result.instructions == [Run(ord("z"), 100)]
        assert result.stats.match_ratio == 0.0

    def test_unrelated_mixed_content_all_add(self):
        base = b"a" * 100
        target = b"zyxw" * 25  # no runs, nothing matching the base
        result = VdeltaEncoder().encode(base, target)
        assert result.instructions == [Add(target)]
        assert result.stats.match_ratio == 0.0

    def test_empty_base(self):
        roundtrip(b"", b"hello world, nothing to match here")

    def test_empty_target(self):
        result = VdeltaEncoder().encode(b"some base content", b"")
        assert result.instructions == []

    def test_both_empty(self):
        result = VdeltaEncoder().encode(b"", b"")
        assert result.instructions == []

    def test_small_edit(self):
        base = b"<html><body>" + b"<p>paragraph</p>" * 50 + b"</body></html>"
        target = base.replace(b"paragraph", b"PARAGRAPH", 1)
        result = VdeltaEncoder().encode(base, target)
        assert replay(result.instructions, base) == target
        # most of the document should be copied
        assert result.stats.match_ratio > 0.9

    def test_insertion_in_middle(self):
        base = b"0123456789" * 20
        target = base[:100] + b"INSERTED CONTENT" + base[100:]
        roundtrip(base, target)

    def test_deletion_in_middle(self):
        base = b"0123456789" * 20
        target = base[:50] + base[120:]
        roundtrip(base, target)

    def test_reordered_blocks(self):
        block_a = b"A" * 40 + b"unique-a-suffix!"
        block_b = b"B" * 40 + b"unique-b-suffix!"
        roundtrip(block_a + block_b, block_b + block_a)

    def test_repeated_base_content(self):
        # Highly repetitive base exercises the per-key chain cap.
        base = b"<td>cell</td>" * 500
        target = b"<td>cell</td>" * 499 + b"<td>diff</td>"
        roundtrip(base, target)


class TestBackwardExtension:
    def test_backward_extension_shrinks_literals(self):
        # Construct a case where the hash probe lands mid-match: the target
        # shares a long run with the base, but the first chunk of the run
        # also appears elsewhere, so the greedy scan may enter the run late.
        base = b"X" * 64 + b"abcdefghijklmnopqrstuvwxyz0123456789" + b"Y" * 64
        target = b"prefix-" + b"abcdefghijklmnopqrstuvwxyz0123456789" + b"-suffix"
        forward_only = VdeltaEncoder(backward=False).encode(base, target)
        with_backward = VdeltaEncoder(backward=True).encode(base, target)
        assert replay(forward_only.instructions, base) == target
        assert replay(with_backward.instructions, base) == target
        assert (
            with_backward.stats.copied_bytes >= forward_only.stats.copied_bytes
        )

    def test_backward_never_crosses_previous_copy(self):
        base = b"abcdef" * 30
        target = b"abcdef" * 30
        result = VdeltaEncoder().encode(base, target)
        # produced instructions must tile the target exactly
        assert replay(result.instructions, base) == target


class TestEncoderConfig:
    def test_min_match_below_chunk_size_rejected(self):
        with pytest.raises(ValueError):
            VdeltaEncoder(chunk_size=8, min_match=4)

    def test_larger_chunks_still_roundtrip(self):
        base = bytes(random.Random(1).randrange(256) for _ in range(2000))
        target = base[:700] + b"edit" + base[900:]
        roundtrip(base, target, chunk_size=16, min_match=16)

    def test_step_sampling_still_roundtrips(self):
        base = b"0123456789abcdef" * 100
        target = base[:500] + b"@@@" + base[500:]
        roundtrip(base, target, step=8)

    def test_index_reuse_matches_one_shot(self):
        encoder = VdeltaEncoder()
        base = b"shared content block " * 40
        index = encoder.index(base)
        target = base.replace(b"shared", b"SHARED", 3)
        via_index = encoder.encode_with_index(index, target)
        one_shot = encoder.encode(base, target)
        assert via_index.instructions == one_shot.instructions

    def test_index_chunk_size_mismatch_rejected(self):
        encoder = VdeltaEncoder(chunk_size=4)
        index = BaseIndex(b"some base", chunk_size=8)
        with pytest.raises(ValueError):
            encoder.encode_with_index(index, b"target")

    def test_zero_candidates_rejected(self):
        with pytest.raises(ValueError):
            VdeltaEncoder(max_candidates=0)


class TestStats:
    def test_stats_sum_to_target_length(self):
        base = b"hello world " * 30
        target = b"hello there " * 30
        result = VdeltaEncoder().encode(base, target)
        total = result.stats.copied_bytes + result.stats.added_bytes
        assert total == len(target)

    def test_instruction_counts(self):
        base = b"aaaa bbbb cccc dddd " * 20
        target = base + b"tail"
        result = VdeltaEncoder().encode(base, target)
        copies = sum(1 for i in result.instructions if isinstance(i, Copy))
        adds = len(result.instructions) - copies
        assert result.stats.copies == copies
        assert result.stats.adds == adds


@settings(max_examples=150, deadline=None)
@given(
    base=st.binary(max_size=400),
    target=st.binary(max_size=400),
)
def test_roundtrip_property(base, target):
    """Any (base, target) pair reconstructs exactly."""
    result = VdeltaEncoder().encode(base, target)
    assert replay(result.instructions, base) == target


@settings(max_examples=60, deadline=None)
@given(
    base=st.binary(min_size=50, max_size=300),
    splice_at=st.integers(min_value=0, max_value=300),
    insert=st.binary(max_size=50),
)
def test_roundtrip_on_edited_base(base, splice_at, insert):
    """Targets derived from the base by splicing reconstruct exactly."""
    cut = min(splice_at, len(base))
    target = base[:cut] + insert + base[cut:]
    result = VdeltaEncoder().encode(base, target)
    assert replay(result.instructions, base) == target
    # Derived targets should mostly be copies once they are long enough.
    if len(base) >= 100 and not insert:
        assert result.stats.match_ratio > 0.5


# -- index representation ------------------------------------------------------


def reference_table(base, chunk_size, step, max_chain=64):
    """The index as one position list per key: what ``BaseIndex`` must enumerate."""
    table: dict[bytes, list[int]] = {}
    for pos in range(0, len(base) - chunk_size + 1, step):
        chain = table.setdefault(base[pos : pos + chunk_size], [])
        if len(chain) < max_chain:
            chain.append(pos)
    return table


def positions(entry) -> list[int]:
    return [entry] if isinstance(entry, int) else entry


# Sixteen 16-byte words with no byte value in common, so ``WORDS[k][:4]``
# and ``WORDS[k]`` occur exactly as often as word k does, at positions
# every geometry below indexes.
WORDS = [bytes(range(16 * k, 16 * k + 16)) for k in range(16)]
FORCED_COUNTS = (1, 2, 64, 65, 200)  # once, a pair, the chain cap, past it


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from([(4, 1), (4, 8), (16, 1), (16, 8)]),
    filler=st.lists(st.integers(len(FORCED_COUNTS), 15), max_size=40),
    noise=st.binary(max_size=64),
    rng=st.randoms(use_true_random=False),
)
def test_index_enumerates_the_reference_positions(geometry, filler, noise, rng):
    """Every key lists the positions of the one-list-per-key builder, in
    order and capped alike, and the kernel round-trips over that index."""
    chunk_size, step = geometry
    words = [WORDS[k] for k, n in enumerate(FORCED_COUNTS) for _ in range(n)]
    words += [WORDS[k] for k in filler]
    rng.shuffle(words)
    base = b"".join(words) + noise

    index = BaseIndex(base, chunk_size=chunk_size, step=step)
    expected = reference_table(base, chunk_size, step)
    assert {key: positions(entry) for key, entry in index.table.items()} == expected
    assert len(index) == len(expected)
    for k, count in enumerate(FORCED_COUNTS):
        assert len(expected[WORDS[k][:chunk_size]]) == min(count, 64)

    rng.shuffle(words)
    target = noise + b"".join(words[: len(words) // 2]) + noise[::-1]
    encoder = VdeltaEncoder(chunk_size=chunk_size, min_match=chunk_size, step=step)
    wire = bytes(encoder.encode_wire_with_index(index, target))
    assert apply_delta(wire, base) == target


def tracked_growth(build) -> int:
    """GC-tracked objects ``build()`` leaves alive, collector paused."""
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = build()
        return len(gc.get_objects()) - before
    finally:
        del kept
        gc.enable()


class TestIndexIsInvisibleToTheCollector:
    """One tracked container per *repeated* key, not one per key: a warmed
    engine keeps ~70 light indexes alive, and at one list per key that was
    ~270k objects for every full collection to re-traverse."""

    def test_light_index_of_distinct_chunks_is_a_constant(self):
        document = random.Random(15).randbytes(32 * 1024)
        keys = Counter(document[i : i + 16] for i in range(0, len(document) - 15, 8))
        assert len(keys) == 4095 and max(keys.values()) == 1
        growth = tracked_growth(lambda: BaseIndex(document, chunk_size=16, step=8))
        assert growth <= 8

    def test_full_index_tracks_repeated_keys_only(self):
        document = (
            b"<html><body><table>"
            + b"".join(
                b'<tr class="row"><td>%d</td><td>item-%05d</td></tr>\n' % (i, i * 7919)
                for i in range(400)
            )
            + b"</table></body></html>"
        )
        keys = Counter(document[i : i + 4] for i in range(len(document) - 3))
        repeated = sum(1 for count in keys.values() if count > 1)
        assert 0 < repeated < len(keys) - 100
        growth = tracked_growth(lambda: BaseIndex(document))
        # the index object and its table, then one chain per repeated key
        assert growth <= repeated + 2
