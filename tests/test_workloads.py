"""Tests for value patterns, profiles, the value pool and trace generation."""

import random

import pytest

from repro.workloads import (
    PARSEC_BENCHMARKS,
    ValuePool,
    WorkloadProfile,
    generate_line,
    generate_traces,
    get_profile,
    sample_corpus,
)
from repro.workloads.patterns import PATTERN_GENERATORS
from repro.workloads.trace import PRIVATE_BASE


class TestPatterns:
    @pytest.mark.parametrize("pattern", sorted(PATTERN_GENERATORS))
    def test_line_size(self, pattern):
        line = generate_line(pattern, random.Random(1), 64)
        assert len(line) == 64

    def test_unknown_pattern(self):
        with pytest.raises(KeyError):
            generate_line("nope", random.Random(1))

    def test_determinism(self):
        for pattern in PATTERN_GENERATORS:
            a = generate_line(pattern, random.Random(42), 64)
            b = generate_line(pattern, random.Random(42), 64)
            assert a == b

    def test_zero_line_is_zero(self):
        assert generate_line("zero", random.Random(0)) == b"\x00" * 64

    def test_pointer_lines_share_region_bases(self):
        """Pointers across lines fall into a small set of heap regions."""
        uppers = set()
        for seed in range(50):
            line = generate_line("pointer", random.Random(seed), 64)
            for i in range(0, 64, 8):
                value = int.from_bytes(line[i : i + 8], "little")
                uppers.add(value >> 24)
        assert len(uppers) <= 16

    def test_random_line_incompressible(self):
        from repro.compression import get_algorithm

        line = generate_line("random", random.Random(7), 64)
        compressed = get_algorithm("delta", cached=False).compress(line)
        assert not compressed.compressible


class TestProfiles:
    def test_thirteen_parsec_benchmarks(self):
        assert len(PARSEC_BENCHMARKS) == 13
        for name in ("blackscholes", "canneal", "x264", "streamcluster"):
            assert name in PARSEC_BENCHMARKS

    def test_get_profile_unknown(self):
        with pytest.raises(KeyError):
            get_profile("doom3")

    def test_pattern_mix_names_valid(self):
        for profile in PARSEC_BENCHMARKS.values():
            for pattern in profile.pattern_mix:
                assert pattern in PATTERN_GENERATORS

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad", pattern_mix={}, working_set_lines=100,
                shared_fraction=0.1, read_fraction=0.5, locality=0.5,
                sequential_run=1, mean_gap=1.0,
            )
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad", pattern_mix={"zero": 1}, working_set_lines=100,
                shared_fraction=1.5, read_fraction=0.5, locality=0.5,
                sequential_run=1, mean_gap=1.0,
            )

    def test_normalized_mix_cumulative(self):
        profile = get_profile("ferret")
        mix = profile.normalized_mix()
        assert mix[-1][1] == pytest.approx(1.0)
        values = [c for _, c in mix]
        assert values == sorted(values)


class TestValuePool:
    def test_line_deterministic(self):
        pool_a = ValuePool(get_profile("dedup"), seed=3)
        pool_b = ValuePool(get_profile("dedup"), seed=3)
        for addr in (0, 17, 123456):
            assert pool_a.line(addr) == pool_b.line(addr)

    def test_different_seeds_differ(self):
        profile = get_profile("dedup")
        lines_a = [ValuePool(profile, seed=1).line(a) for a in range(20)]
        lines_b = [ValuePool(profile, seed=2).line(a) for a in range(20)]
        assert lines_a != lines_b

    def test_write_advances_version(self):
        pool = ValuePool(get_profile("dedup"), seed=3)
        pool.line(5)
        version = pool.store(5)
        assert version == 1
        updated = pool.value(5, version)
        assert pool.line(5) == updated
        again = pool.value(5, pool.store(5))
        assert pool.line(5) == again
        # versions are deterministic too
        pool_b = ValuePool(get_profile("dedup"), seed=3)
        pool_b.line(5)
        assert pool_b.value(5, pool_b.store(5)) == updated

    def test_sample_sizes(self):
        pool = ValuePool(get_profile("vips"), seed=1)
        sample = pool.sample(37)
        assert len(sample) == 37
        assert all(len(line) == 64 for line in sample)

    def test_sample_corpus(self):
        corpus = sample_corpus(
            list(PARSEC_BENCHMARKS.values())[:3], lines_per_profile=10
        )
        assert len(corpus) == 30


class TestTraces:
    def test_determinism(self):
        profile = get_profile("x264")
        a = generate_traces(profile, 4, 100, seed=9)
        b = generate_traces(profile, 4, 100, seed=9)
        assert a.traces == b.traces

    def test_shape_with_sweep(self):
        profile = get_profile("x264")
        ts = generate_traces(profile, 4, 100, seed=9, warmup_sweep=True)
        assert ts.n_cores == 4
        assert len(ts.sweep_lengths) == 4
        for trace, sweep in zip(ts.traces, ts.sweep_lengths):
            assert len(trace) == sweep + 100
            assert sweep > 0
            # sweep prefix is all reads with gap 1
            for access in trace[:sweep]:
                assert not access.is_write
                assert access.gap == 1

    def test_no_sweep_by_default(self):
        """LLC warm-start uses CmpSystem prefill, not a trace sweep."""
        profile = get_profile("x264")
        ts = generate_traces(profile, 2, 50, seed=9)
        assert ts.sweep_lengths == [0, 0]
        assert all(len(t) == 50 for t in ts.traces)

    def test_address_regions_disjoint(self):
        profile = get_profile("bodytrack")
        ts = generate_traces(profile, 4, 300, seed=5)
        shared_limit = int(
            profile.working_set_lines * 0.25
        ) + 16  # generous bound
        for core, trace in enumerate(ts.traces):
            base = PRIVATE_BASE * (core + 1)
            for access in trace:
                addr = access.address
                private = base <= addr < base + (1 << 31)
                shared = 0 <= addr <= shared_limit
                assert private or shared, hex(addr)

    def test_gaps_positive(self):
        ts = generate_traces(get_profile("dedup"), 2, 200, seed=1)
        assert all(a.gap >= 1 for t in ts.traces for a in t)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_traces(get_profile("dedup"), 0, 10)

    def test_writes_match_read_fraction_roughly(self):
        profile = get_profile("dedup")  # read_fraction 0.58
        ts = generate_traces(profile, 2, 4000, seed=3, warmup_sweep=False)
        writes = sum(a.is_write for t in ts.traces for a in t)
        total = sum(len(t) for t in ts.traces)
        assert 0.3 < writes / total < 0.55
