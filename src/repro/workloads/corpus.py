"""Deterministic address → cache-line-content mapping (``ValuePool``).

The simulator needs real line payloads (compression operates on bytes, not
ratios).  A :class:`ValuePool` deterministically assigns every line address
a value drawn from the benchmark profile's pattern mix, and evolves it on
writes, so two simulation runs of the same (profile, seed) see bit-identical
data no matter which scheme is being simulated.

Values are made on demand.  Version ``v`` of line ``addr`` is a pure
function of ``(seed, addr, v)``; a store only advances the line's version
(:meth:`ValuePool.store`), and the bytes are generated the first time
something reads them (:meth:`ValuePool.line`, :meth:`ValuePool.value`).
Most store values are overwritten by the next store to the line before
anything reads them, so most are never generated.
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

    ``line(addr)`` returns the current (latest-version) 64-byte content of
    a line address; ``store(addr)`` advances the line's version (a store)
    and returns it; ``value(addr, version)`` returns any version's content.
    Every version is drawn from the line's pattern family, so written-back
    data keeps the benchmark's compressibility.
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
        #: Latest version per stored-to address (absent: version 0).
        self._versions: Dict[int, int] = {}
        #: Content of the latest version, for the addresses read since
        #: their last store.
        self._current: Dict[int, bytes] = {}
        #: Pattern per address: a pure function of (seed, addr), drawn
        #: once instead of on every generation (a cache).
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
        """Current content of line ``addr`` (its latest version)."""
        cached = self._current.get(addr)
        if cached is None:
            cached = self._generate(addr, self._versions.get(addr, 0))
            self._current[addr] = cached
        return cached

    def store(self, addr: int) -> int:
        """Advance the line's version (a store) and return the new version.

        Nothing is generated: the version's bytes are made when first read.
        """
        version = self._versions.get(addr, 0) + 1
        self._versions[addr] = version
        self._current.pop(addr, None)
        return version

    def value(self, addr: int, version: int) -> bytes:
        """Content of ``version`` of line ``addr``."""
        if version == self._versions.get(addr, 0):
            return self.line(addr)
        return self._generate(addr, version)

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
