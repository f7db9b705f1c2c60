"""Tests for the DISCO delta compressor and separate-compression session."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.delta import (
    DeltaCompressor,
    SeparateDeltaSession,
    _DeltaPayload,
    _HEADER_BITS,
)


def make_line_from_chunks(values, width=8, line=64):
    return b"".join(v.to_bytes(width, "little") for v in values)[:line]


class TestDeltaCompressor:
    def test_zero_line(self):
        algo = DeltaCompressor()
        compressed = algo.compress(b"\x00" * 64)
        assert compressed.size_bits == _HEADER_BITS + 1
        assert algo.decompress(compressed) == b"\x00" * 64

    def test_repeated_chunk_line(self):
        algo = DeltaCompressor()
        line = (0xDEADBEEFCAFEF00D).to_bytes(8, "little") * 8
        compressed = algo.compress(line)
        assert compressed.size_bits == _HEADER_BITS + 64 + 1
        assert algo.decompress(compressed) == line

    def test_first_chunk_base_compression(self):
        base = 0x7000_0000_0000
        values = [base + i * 8 for i in range(8)]  # deltas fit one byte
        line = make_line_from_chunks(values)
        algo = DeltaCompressor()
        compressed = algo.compress(line)
        # header + 8B base + 7 x (select bit + 1B delta) + tag bit
        assert compressed.size_bits == _HEADER_BITS + 64 + 7 * 9 + 1
        assert algo.decompress(compressed) == line

    def test_zero_base_handles_small_values(self):
        values = [100, 3, 250, 17, 99, 0, 255, 42]
        line = make_line_from_chunks(values)
        algo = DeltaCompressor()
        compressed = algo.compress(line)
        assert compressed.compressible
        assert algo.decompress(compressed) == line

    def test_mixed_bases(self):
        base = 1 << 40
        values = [base, base + 4, 7, base + 100, 0, base + 9, 3, base + 80]
        line = make_line_from_chunks(values)
        algo = DeltaCompressor()
        compressed = algo.compress(line)
        assert compressed.compressible
        assert algo.decompress(compressed) == line

    def test_negative_deltas(self):
        base = 1 << 30
        values = [base, base - 100, base - 1, base + 127, base - 128,
                  base + 1, base - 50, base + 50]
        line = make_line_from_chunks(values)
        algo = DeltaCompressor()
        assert algo.decompress(algo.compress(line)) == line

    def test_incompressible_random(self):
        rng = random.Random(99)
        line = rng.getrandbits(512).to_bytes(64, "little")
        algo = DeltaCompressor()
        compressed = algo.compress(line)
        assert algo.decompress(compressed) == line

    def test_unit_validation(self):
        with pytest.raises(ValueError):
            DeltaCompressor(units=((8, 8),))  # delta not narrower
        with pytest.raises(ValueError):
            DeltaCompressor(line_size=64, units=((48, 1),))

    def test_four_byte_base_geometry_wins_for_narrow32(self):
        values32 = [1000 + i for i in range(16)]
        line = b"".join(v.to_bytes(4, "little") for v in values32)
        algo = DeltaCompressor()
        compressed = algo.compress(line)
        # (4,1) geometry: header + 32 base + 15*(1+8) bits
        assert compressed.size_bits == _HEADER_BITS + 32 + 15 * 9 + 1
        assert algo.decompress(compressed) == line


class TestSeparateDeltaSession:
    def test_matches_content_after_streaming(self):
        base = 0x5000_0000
        values = [base + i for i in range(8)]
        line = make_line_from_chunks(values)
        session = SeparateDeltaSession()
        session.feed(line[:16])  # two flits arrive first (paper example)
        session.feed(line[16:])
        assert session.reconstruct() == line

    def test_streaming_size_never_smaller_than_whole(self):
        """§3.3-A: separate compression sacrifices compression rate."""
        rng = random.Random(5)
        algo = DeltaCompressor()
        for _ in range(40):
            base = rng.randrange(1 << 40)
            values = [
                (base + rng.randrange(-100, 100)) & ((1 << 64) - 1)
                for _ in range(8)
            ]
            line = make_line_from_chunks(values)
            whole = algo.compress(line)
            session = SeparateDeltaSession()
            session.feed(line)
            separate = session.result()
            assert separate.size_bits >= whole.size_bits - _HEADER_BITS

    def test_partial_feed_requires_whole_chunks(self):
        session = SeparateDeltaSession()
        with pytest.raises(ValueError):
            session.feed(b"\x00" * 3)

    def test_escape_chunks_roundtrip(self):
        rng = random.Random(11)
        line = rng.getrandbits(512).to_bytes(64, "little")
        session = SeparateDeltaSession()
        for i in range(0, 64, 8):
            session.feed(line[i : i + 8])
        assert session.reconstruct() == line
        result = session.result()
        assert result.size_bits <= 8 * 64 + 1 + 2 * 8  # tags bounded

    def test_bits_accumulate_per_feed(self):
        session = SeparateDeltaSession()
        added_first = session.feed(b"\x01" * 8)
        added_second = session.feed(b"\x01" * 8)
        assert added_first == 2 + 64  # raw base chunk + tag
        assert added_second == 2 + 8  # one-byte delta vs base + tag
        assert session.size_bits == added_first + added_second

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            SeparateDeltaSession(chunk_width=4, delta_width=4)

    @given(st.lists(st.integers(0, 2**64 - 1), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_streaming_roundtrip_property(self, values):
        line = make_line_from_chunks(values)
        session = SeparateDeltaSession()
        session.feed(line[:24])
        session.feed(line[24:])
        assert session.reconstruct() == line


# -- first-fit encoder vs the exhaustive oracle ------------------------------

#: The default units plus equal-size pairs for 64-byte lines:
#: (2,1) and (8,4) both take 299 bits, (4,3) and (8,6) both 411.
TIED_UNITS = ((8, 1), (8, 2), (8, 4), (4, 1), (4, 2), (2, 1), (4, 3), (8, 6))


def exhaustive_encode(line, units):
    """The selection logic as specified: encode the line with every unit,
    keep the strictly smallest (ties to the special encodings, then to
    ``units`` order)."""

    def fits(value, nbytes):
        return -(1 << (8 * nbytes - 1)) <= value < 1 << (8 * nbytes - 1)

    best_bits, best_payload = 1 << 62, None
    if line == b"\x00" * len(line):
        best_bits, best_payload = _HEADER_BITS, ("zero",)
    elif line == line[:8] * (len(line) // 8):
        best_bits = _HEADER_BITS + 64
        best_payload = ("repeat", int.from_bytes(line[:8], "little"))
    for base_w, delta_w in units:
        values = [
            int.from_bytes(line[i : i + base_w], "little")
            for i in range(0, len(line), base_w)
        ]
        base = values[0]
        entries = []
        for value in values[1:]:
            d_base = value - base
            d_zero = int.from_bytes(
                value.to_bytes(base_w, "little"), "little", signed=True
            )
            if fits(d_base, delta_w) and (
                not fits(d_zero, delta_w) or abs(d_base) <= abs(d_zero)
            ):
                entries.append((0, d_base))
            elif fits(d_zero, delta_w):
                entries.append((1, d_zero))
            else:
                break
        else:
            size = _HEADER_BITS + 8 * base_w + len(entries) * (1 + 8 * delta_w)
            if size < best_bits:
                best_bits = size
                best_payload = _DeltaPayload(
                    base_w, delta_w, base, tuple(entries)
                )
    if best_payload is None:
        return 8 * len(line), line
    return best_bits, best_payload


def edge_lines(base_w, delta_w, line_size=64):
    """Lines whose deltas sit at and just past the unit's signed bounds,
    from the first-chunk base and from the zero base."""
    bound = 1 << (8 * delta_w - 1)
    mask = (1 << (8 * base_w)) - 1
    n = line_size // base_w
    base = (0x5A5A_5A5A_5A5A_5A5A & mask) | (1 << (8 * base_w - 2))
    for delta in (-bound - 1, -bound, -1, 1, bound - 1, bound):
        from_base = [base] + [(base + delta) & mask] * (n - 1)
        from_zero = [base] + [delta & mask] * (n - 1)
        mixed = [base] + [
            (base + delta if i % 2 else delta) & mask for i in range(1, n)
        ]
        for values in (from_base, from_zero, mixed):
            yield b"".join(v.to_bytes(base_w, "little") for v in values)


def _delta_lines(width):
    """Hypothesis lines of ``width``-byte chunks near one base or zero."""
    mask = (1 << (8 * width)) - 1
    n = 64 // width
    deltas = st.one_of(
        st.integers(-(2**7) - 2, 2**7 + 2),
        st.integers(-(2**15) - 2, 2**15 + 2),
        st.integers(-(2**31) - 2, 2**31 + 2),
    )

    def build(base, pairs):
        values = [base] + [
            ((0 if from_zero else base) + delta) & mask
            for delta, from_zero in pairs
        ]
        return b"".join(v.to_bytes(width, "little") for v in values)

    return st.builds(
        build,
        st.integers(0, mask),
        st.lists(st.tuples(deltas, st.booleans()), min_size=n - 1,
                 max_size=n - 1),
    )


HYPOTHESIS_LINES = st.one_of(
    st.binary(min_size=64, max_size=64),
    _delta_lines(8),
    _delta_lines(4),
    _delta_lines(2),
)


def shuffled(units, seed):
    order = list(units)
    random.Random(seed).shuffle(order)
    return tuple(order)


class TestFirstFitMatchesExhaustive:
    @given(HYPOTHESIS_LINES)
    @settings(max_examples=300, deadline=None)
    def test_default_units(self, line):
        algo = DeltaCompressor()
        assert algo._encode(line) == exhaustive_encode(line, algo.units)

    @given(HYPOTHESIS_LINES, st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_shuffled_units_with_ties(self, line, seed):
        units = shuffled(TIED_UNITS, seed)
        algo = DeltaCompressor(units=units)
        assert algo._encode(line) == exhaustive_encode(line, units)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("base_w, delta_w", TIED_UNITS)
    def test_bound_edges(self, base_w, delta_w, seed):
        units = shuffled(TIED_UNITS, seed)
        algos = (DeltaCompressor(), DeltaCompressor(units=units))
        for line in edge_lines(base_w, delta_w):
            for algo in algos:
                assert algo._encode(line) == exhaustive_encode(
                    line, algo.units
                )

    def test_equal_size_units_keep_units_order(self):
        # 16-bit values [a, b, 0, 0] per 8-byte chunk: (2,1) and (8,4)
        # fit at 299 bits each; nothing smaller fits.
        rng = random.Random(4)
        halves = []
        for _ in range(8):
            halves += [rng.randrange(128), rng.randrange(1, 128), 0, 0]
        line = b"".join(h.to_bytes(2, "little") for h in halves)
        for units, winner in (
            (((2, 1), (8, 4)), (2, 1)),
            (((8, 4), (2, 1)), (8, 4)),
        ):
            size, payload = DeltaCompressor(units=units)._encode(line)
            assert size == 299
            assert (payload.base_width, payload.delta_width) == winner
            assert (size, payload) == exhaustive_encode(line, units)
