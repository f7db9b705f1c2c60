"""Tests for the compression plug-in contract and helpers."""

import pytest

from repro.compression.base import (
    CachedCompressor,
    CompressedLine,
    CompressionTiming,
    chunks,
    from_chunks,
    from_words32,
    sign_extend,
    signed_fits,
    to_signed,
    words32,
)
from repro.compression.delta import DeltaCompressor


def test_timing_validation():
    with pytest.raises(ValueError):
        CompressionTiming(-1, 3)
    timing = CompressionTiming(1, 3, 0.02)
    assert timing.compression_cycles == 1


def test_compressed_line_properties():
    line = CompressedLine("delta", 512, 130, None, True)
    assert line.size_bytes == 17
    assert line.ratio == pytest.approx(512 / 130)
    assert line.flit_count(8) == 3


def test_flit_count_validates():
    line = CompressedLine("delta", 512, 130, None, True)
    with pytest.raises(ValueError):
        line.flit_count(0)


def test_compress_rejects_wrong_line_size():
    algo = DeltaCompressor(line_size=64)
    with pytest.raises(ValueError):
        algo.compress(b"\x00" * 32)


def test_line_size_validation():
    with pytest.raises(ValueError):
        DeltaCompressor(line_size=0)
    with pytest.raises(ValueError):
        DeltaCompressor(line_size=62)


def test_incompressible_fallback_keeps_raw():
    algo = DeltaCompressor()
    import random

    rng = random.Random(1)
    random_line = rng.getrandbits(512).to_bytes(64, "little")
    compressed = algo.compress(random_line)
    if not compressed.compressible:
        assert compressed.size_bits == 512 + 1
    assert algo.decompress(compressed) == random_line


def test_decompress_checks_algorithm_name():
    algo = DeltaCompressor()
    other = CompressedLine("fpc", 512, 100, None, True)
    with pytest.raises(ValueError):
        algo.decompress(other)


def test_words32_roundtrip():
    line = bytes(range(64))
    assert from_words32(words32(line)) == line
    assert len(words32(line)) == 16


def test_chunks_roundtrip():
    line = bytes(range(64))
    for width in (2, 4, 8):
        assert from_chunks(chunks(line, width), width) == line


def test_signed_helpers():
    assert signed_fits(127, 1)
    assert not signed_fits(128, 1)
    assert signed_fits(-128, 1)
    assert not signed_fits(-129, 1)
    assert to_signed(0xFF, 1) == -1
    assert to_signed(0x7F, 1) == 127
    assert sign_extend(0xFF, 1, 4) == 0xFFFFFFFF
    assert sign_extend(0x01, 1, 4) == 1


class TestCachedCompressor:
    def test_caches_and_matches_inner(self):
        inner = DeltaCompressor()
        cached = CachedCompressor(DeltaCompressor(), capacity=4)
        line = b"\x07" * 64
        first = cached.compress(line)
        second = cached.compress(line)
        assert first is second
        assert cached.hits == 1 and cached.misses == 1
        assert first.size_bits == inner.compress(line).size_bits
        assert cached.decompress(first) == line

    def test_lru_bound(self):
        cached = CachedCompressor(DeltaCompressor(), capacity=2)
        lines = [bytes([i]) * 64 for i in range(3)]
        for line in lines:
            cached.compress(line)
        cached.compress(lines[0])  # evicted, recompressed
        assert cached.misses == 4

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            CachedCompressor(DeltaCompressor(), capacity=0)

    def test_train_requires_trainable_inner(self):
        cached = CachedCompressor(DeltaCompressor())
        with pytest.raises(AttributeError):
            cached.train([b"\x00" * 64])
