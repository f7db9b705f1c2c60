"""Deterministic address → cache-line-content mapping (``ValuePool``).

The simulator needs real line payloads (compression operates on bytes, not
ratios).  A :class:`ValuePool` deterministically assigns every line address
a value drawn from the benchmark profile's pattern mix, and evolves it on
writes, so two simulation runs of the same (profile, seed) see bit-identical
data no matter which scheme is being simulated.
"""

from __future__ import annotations

import random
from typing import Dict, List

from repro.workloads.patterns import generate_line
from repro.workloads.profiles import WorkloadProfile

#: Large odd multiplier for address-seed mixing (splitmix-style).
_MIX = 0x9E3779B97F4A7C15


class ValuePool:
    """Deterministic value store backing a synthetic workload.

    ``line(addr)`` returns the current 64-byte content of a line address;
    ``fresh_write_value(addr)`` returns the next value a store writes there
    (drawn from the same pattern family, so written-back data keeps the
    benchmark's compressibility).
    """

    def __init__(
        self,
        profile: WorkloadProfile,
        seed: int = 1,
        line_size: int = 64,
    ):
        self.profile = profile
        self.seed = seed
        self.line_size = line_size
        self._mix = profile.normalized_mix()
        self._versions: Dict[int, int] = {}
        self._current: Dict[int, bytes] = {}
        #: Pattern per address: a pure function of (seed, addr), drawn
        #: once instead of on every store (a cache).
        self._patterns: Dict[int, str] = {}

    def _pattern_for(self, addr: int) -> str:
        pattern = self._patterns.get(addr)
        if pattern is None:
            rng = random.Random((self.seed * 1_000_003) ^ (addr * _MIX))
            pick = rng.random()
            pattern = self._mix[-1][0]
            for name, cumulative in self._mix:
                if pick <= cumulative:
                    pattern = name
                    break
            self._patterns[addr] = pattern
        return pattern

    def _generate(self, addr: int, version: int) -> bytes:
        pattern = self._pattern_for(addr)
        rng = random.Random(
            ((self.seed + version * 7_919) * 1_000_003) ^ (addr * _MIX) ^ version
        )
        return generate_line(pattern, rng, self.line_size)

    def line(self, addr: int) -> bytes:
        """Current content of line ``addr``."""
        cached = self._current.get(addr)
        if cached is None:
            cached = self._generate(addr, 0)
            self._current[addr] = cached
        return cached

    def fresh_write_value(self, addr: int) -> bytes:
        """Advance the line's version (a store) and return the new value."""
        version = self._versions.get(addr, 0) + 1
        self._versions[addr] = version
        value = self._generate(addr, version)
        self._current[addr] = value
        return value

    def sample(self, n: int, seed: int = 0) -> List[bytes]:
        """``n`` representative lines (for SC²/FVC training, Table 1)."""
        rng = random.Random((self.seed, seed, n).__hash__())
        addresses = [
            rng.randrange(0, max(16, self.profile.working_set_lines))
            for _ in range(n)
        ]
        return [self._generate(addr, 0) for addr in addresses]


def sample_corpus(
    profiles, lines_per_profile: int = 200, seed: int = 1
) -> List[bytes]:
    """A mixed corpus across profiles (used by Table 1 and SC² training)."""
    corpus: List[bytes] = []
    for profile in profiles:
        pool = ValuePool(profile, seed=seed)
        corpus.extend(pool.sample(lines_per_profile))
    return corpus
