"""Algorithm-specific tests: BDI geometries, C-Pack dictionary, SC² codec."""

import random

import pytest
from hypothesis import given, settings

from repro.compression.bdi import _GEOMETRIES, _HEADER_BITS, BDICompressor
from repro.compression.cpack import CPackCompressor, _Dictionary
from repro.compression.sc2 import SC2Compressor
from repro.compression.fvc import FVCCompressor
from repro.compression.zerocontent import ZeroContentCompressor
from repro.workloads.corpus import sample_corpus
from repro.workloads.profiles import PARSEC_BENCHMARKS
from tests.test_delta import HYPOTHESIS_LINES, edge_lines


def chunk_line(values, width=8):
    return b"".join(v.to_bytes(width, "little") for v in values)


class TestBDI:
    def test_zero_and_repeat(self):
        algo = BDICompressor()
        zero = algo.compress(b"\x00" * 64)
        assert zero.size_bytes <= 1
        line = (12345).to_bytes(8, "little") * 8
        repeat = algo.compress(line)
        assert repeat.size_bytes <= 9
        assert algo.decompress(repeat) == line

    def test_base8_delta1(self):
        base = 1 << 50
        values = [base + i for i in range(8)]
        line = chunk_line(values)
        algo = BDICompressor()
        compressed = algo.compress(line)
        # header 4 + mask 8 + base 64 + 8 deltas x 8 + tag
        assert compressed.size_bits == 4 + 8 + 64 + 64 + 1
        assert algo.decompress(compressed) == line

    def test_dual_base_mixing(self):
        """Chunks near zero ride the immediate base; others the real base."""
        base = 1 << 42
        values = [5, base, 120, base + 90, 0, base - 100, 7, base + 1]
        line = chunk_line(values)
        algo = BDICompressor()
        compressed = algo.compress(line)
        assert compressed.compressible
        assert algo.decompress(compressed) == line

    def test_base2_geometry(self):
        values = [40000 + (i % 100) for i in range(32)]
        line = chunk_line(values, width=2)
        algo = BDICompressor()
        compressed = algo.compress(line)
        assert compressed.compressible
        assert algo.decompress(compressed) == line


def bdi_exhaustive(line):
    """The selection as specified: encode the line with every geometry,
    keep the strictly smallest (ties to the special encodings, then to
    ``_GEOMETRIES`` order)."""
    algo = BDICompressor(len(line))
    special = algo._encode_special(line)
    best_bits, best_payload = special if special else (1 << 62, None)
    for base_w, delta_w in _GEOMETRIES:
        if len(line) % base_w:
            continue
        payload = algo._encode_geometry(line, base_w, delta_w)
        if payload is None:
            continue
        n = len(line) // base_w
        size = _HEADER_BITS + n + 8 * base_w + 8 * delta_w * n
        if size < best_bits:
            best_bits, best_payload = size, payload
    if best_payload is None:
        return 8 * len(line), line
    return best_bits, best_payload


def _tie_line():
    """4-byte chunks ``small + (0x300 << 16)`` and ``0x300 + (0x300 << 16)``
    in an irregular order: (4,2) and (2,1) both fit at 308 bits, and no
    smaller geometry does ((4,1) needs the chunks' 763-apart low halves
    within a byte)."""
    rng = random.Random(5)
    low = [rng.randrange(1, 100) for _ in range(16)]
    halves = []
    for i, small in enumerate(low):
        halves += [0x300 if i in (1, 2, 6, 9, 10, 15) else small, 0x300]
    return b"".join(h.to_bytes(2, "little") for h in halves)


class TestBDIFirstFitMatchesExhaustive:
    @given(HYPOTHESIS_LINES)
    @settings(max_examples=300, deadline=None)
    def test_hypothesis_lines(self, line):
        assert BDICompressor()._encode(line) == bdi_exhaustive(line)

    def test_profile_corpus(self):
        corpus = sample_corpus(
            [PARSEC_BENCHMARKS[name] for name in sorted(PARSEC_BENCHMARKS)],
            lines_per_profile=64,
        )
        algo = BDICompressor()
        geometries = set()
        for line in corpus:
            bits, payload = algo._encode(line)
            assert (bits, payload) == bdi_exhaustive(line)
            if hasattr(payload, "base_width"):
                geometries.add((payload.base_width, payload.delta_width))
        assert len(geometries) >= 3  # the corpus exercises the order

    @pytest.mark.parametrize("base_w, delta_w", _GEOMETRIES)
    def test_bound_edges(self, base_w, delta_w):
        algo = BDICompressor()
        for line in edge_lines(base_w, delta_w):
            assert algo._encode(line) == bdi_exhaustive(line)

    def test_equal_size_geometries_keep_table_order(self):
        line = _tie_line()
        algo = BDICompressor()
        for base_w, delta_w in ((4, 2), (2, 1)):
            assert algo._encode_geometry(line, base_w, delta_w) is not None
        for base_w, delta_w in ((8, 1), (8, 2), (4, 1)):
            assert algo._encode_geometry(line, base_w, delta_w) is None
        bits, payload = algo._encode(line)
        assert bits == 308
        assert (payload.base_width, payload.delta_width) == (4, 2)
        assert (bits, payload) == bdi_exhaustive(line)
        assert algo.decompress(algo.compress(line)) == line

    @pytest.mark.parametrize("line_size", [8, 16, 32])
    def test_other_line_sizes(self, line_size):
        """The size order depends on the line size (at 8 bytes a (4,1)
        encoding undercuts the repeat encoding)."""
        rng = random.Random(line_size)
        algo = BDICompressor(line_size)
        for _ in range(300):
            width = rng.choice((2, 4, 8))
            n = line_size // width
            base = rng.randrange(1 << (8 * width))
            spread = 1 << rng.choice((4, 8, 12, 20))
            values = [
                (rng.choice((0, base)) + rng.randrange(-spread, spread))
                % (1 << (8 * width))
                for _ in range(n)
            ]
            line = b"".join(v.to_bytes(width, "little") for v in values)
            assert algo._encode(line) == bdi_exhaustive(line)


class TestCPackDictionary:
    def test_full_and_partial_match(self):
        d = _Dictionary()
        d.push(0x12345678)
        assert d.full_match(0x12345678) == 0
        assert d.partial_match(0x123456FF, 3) == 0
        assert d.partial_match(0x1234FFFF, 2) == 0
        assert d.full_match(0x11111111) == -1

    def test_fifo_eviction(self):
        d = _Dictionary()
        for i in range(20):
            d.push(i + (1 << 20))
        assert len(d.entries) == 16
        assert d.full_match(4 + (1 << 20)) == 0  # oldest remaining


class TestCPack:
    def test_dictionary_exploitation(self):
        # Repeating distinct large words: first occurrence raw, rest mmmm.
        words = [0xDEAD0001, 0xBEEF0002, 0xCAFE0003, 0xF00D0004] * 4
        line = b"".join(w.to_bytes(4, "little") for w in words)
        algo = CPackCompressor()
        compressed = algo.compress(line)
        # 4 x xxxx (34) + 12 x mmmm (6) + tag
        assert compressed.size_bits == 4 * 34 + 12 * 6 + 1
        assert algo.decompress(compressed) == line

    def test_partial_match_codes(self):
        words = [0xAABBCC00 + i for i in range(16)]  # top 3 bytes shared
        line = b"".join(w.to_bytes(4, "little") for w in words)
        algo = CPackCompressor()
        compressed = algo.compress(line)
        assert compressed.compressible
        assert algo.decompress(compressed) == line


class TestSC2:
    def test_training_improves_ratio(self):
        rng = random.Random(4)
        vocabulary = [rng.getrandbits(32) for _ in range(8)]
        lines = [
            b"".join(
                rng.choice(vocabulary).to_bytes(4, "little") for _ in range(16)
            )
            for _ in range(200)
        ]
        algo = SC2Compressor()
        before = sum(algo.compress(ln).size_bits for ln in lines[:50])
        algo.train(lines[50:])
        after = sum(algo.compress(ln).size_bits for ln in lines[:50])
        assert after < before

    def test_generation_mismatch_rejected(self):
        algo = SC2Compressor()
        compressed = algo.compress(b"\x01" * 64)
        algo.train([b"\x02" * 64] * 4)
        with pytest.raises(ValueError):
            algo.decompress(compressed)

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            SC2Compressor().train([])

    def test_bitstream_roundtrip_with_escapes(self):
        rng = random.Random(9)
        line = rng.getrandbits(512).to_bytes(64, "little")
        algo = SC2Compressor()
        compressed = algo.compress(line)
        assert algo.decompress(compressed) == line

    def test_codebook_size_validation(self):
        with pytest.raises(ValueError):
            SC2Compressor(codebook_size=1)


class TestFVC:
    def test_table_hits_and_misses(self):
        algo = FVCCompressor()
        line = (b"\x00" * 4 + b"\x01\x00\x00\x00") * 8  # 0 and 1: both in table
        compressed = algo.compress(line)
        assert compressed.size_bits == 16 * (1 + algo.index_bits) + 1
        assert algo.decompress(compressed) == line

    def test_train_replaces_table(self):
        algo = FVCCompressor()
        value = 0xABCD1234
        lines = [value.to_bytes(4, "little") * 16] * 10
        algo.train(lines)
        assert value in algo.table
        compressed = algo.compress(lines[0])
        assert compressed.size_bytes < 12

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            FVCCompressor(table=())


class TestZeroContent:
    def test_all_zero_is_one_bit(self):
        algo = ZeroContentCompressor()
        compressed = algo.compress(b"\x00" * 64)
        assert compressed.size_bits == 1 + 1

    def test_partial_zero(self):
        line = (b"\x00" * 4 + b"\xff" * 4) * 8
        algo = ZeroContentCompressor()
        compressed = algo.compress(line)
        # 1 flag + 16 word flags + 8 nonzero words
        assert compressed.size_bits == 1 + 16 + 8 * 32 + 1
        assert algo.decompress(compressed) == line
