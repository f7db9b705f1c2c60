"""Property-based round-trip tests for every compression algorithm.

The single most important invariant of the compression substrate: for any
64-byte line, ``decompress(compress(line)) == line`` and the reported size
never exceeds raw + the 1-bit tag.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import available_algorithms, get_algorithm
from repro.workloads.patterns import PATTERN_GENERATORS, generate_line

LINE = 64


def algorithms():
    return [get_algorithm(name, cached=False) for name in available_algorithms()]


@pytest.fixture(scope="module", params=available_algorithms())
def algorithm(request):
    return get_algorithm(request.param, cached=False)


@given(data=st.binary(min_size=LINE, max_size=LINE))
@settings(max_examples=60, deadline=None)
def test_roundtrip_random_bytes(data):
    for algo in algorithms():
        compressed = algo.compress(data)
        assert algo.decompress(compressed) == data
        assert compressed.size_bits <= 8 * LINE + 1
        assert compressed.size_bits >= 1


@given(
    pattern=st.sampled_from(sorted(PATTERN_GENERATORS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_roundtrip_patterned_lines(pattern, seed):
    line = generate_line(pattern, random.Random(seed), LINE)
    for algo in algorithms():
        compressed = algo.compress(line)
        assert algo.decompress(compressed) == line, (algo.name, pattern)


def test_zero_line_is_tiny_everywhere(algorithm):
    compressed = algorithm.compress(b"\x00" * LINE)
    assert compressed.compressible
    # Word-flag schemes (FVC) need a flag+index per word: 9 bytes worst.
    assert compressed.size_bytes <= 9


def test_sizes_are_deterministic(algorithm):
    for pattern in sorted(PATTERN_GENERATORS):
        line = generate_line(pattern, random.Random(17), LINE)
        first = algorithm.compress(line)
        second = algorithm.compress(line)
        assert first.size_bits == second.size_bits


def test_ratio_ordering_on_corpus():
    """The Table 1 landscape: statistical > delta-family > word-flag."""
    from repro.workloads import PARSEC_BENCHMARKS
    from repro.workloads.corpus import ValuePool

    ratios = {}
    for name in ("sc2", "delta", "fpc", "sfpc", "zero"):
        raw = comp = 0
        for profile in list(PARSEC_BENCHMARKS.values())[::3]:
            pool = ValuePool(profile, seed=2)
            algo = get_algorithm(name)
            if name == "sc2":
                algo.train(pool.sample(300, seed=5))
            for line in pool.sample(120, seed=9):
                raw += LINE
                comp += algo.compress(line).size_bytes
        ratios[name] = raw / comp
    assert ratios["sc2"] > ratios["delta"] > ratios["sfpc"]
    assert ratios["fpc"] > ratios["sfpc"] > ratios["zero"]
    # Everything should actually compress this corpus.
    assert all(r > 1.1 for r in ratios.values())
