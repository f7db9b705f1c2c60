"""Private per-core L1 data cache (Table 2: 32 KB, 4-way, 64 B lines).

The L1 holds raw (uncompressed) lines in MSI states — the paper's schemes
never compress L1 contents (the MSHR receives decompressed blocks).  The
surrounding tile handles all messaging; the L1 itself is a synchronous
structure with ``access`` / ``fill`` / ``invalidate`` operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.mshr import MSHRFile
from repro.cache.replacement import LRUPolicy

# L1 line states (MSI; E/O omitted — see DESIGN.md protocol simplification).
STATE_S = "S"
STATE_M = "M"

# access() outcomes
HIT = "hit"
MISS = "miss"
UPGRADE = "upgrade"  # write hit on a Shared line: needs a GETX round


@dataclass
class L1Line:
    addr: int
    state: str
    data: bytes
    dirty: bool = False


@dataclass
class L1Stats:
    hits: int = 0
    misses: int = 0
    upgrades: int = 0
    writebacks: int = 0
    invalidations: int = 0
    recalls: int = 0
    reads: int = 0
    writes: int = 0


class L1Cache:
    """Set-associative write-back L1 with an MSHR file."""

    def __init__(
        self,
        n_sets: int = 128,
        ways: int = 4,
        line_size: int = 64,
        mshrs: int = 8,
    ):
        if n_sets < 1 or ways < 1:
            raise ValueError("n_sets and ways must be positive")
        self.n_sets = n_sets
        self.ways = ways
        self.line_size = line_size
        self.mshr = MSHRFile(mshrs)
        self._sets: List[Dict[int, L1Line]] = [{} for _ in range(n_sets)]
        self._lru: List[LRUPolicy] = [LRUPolicy() for _ in range(n_sets)]
        self.stats = L1Stats()

    # -- addressing --------------------------------------------------------
    def _index(self, addr: int) -> int:
        return addr % self.n_sets

    def lookup(self, addr: int) -> Optional[L1Line]:
        return self._sets[self._index(addr)].get(addr)

    # -- core-facing operations ----------------------------------------------
    def access(self, addr: int, is_write: bool) -> str:
        """Attempt an access; returns HIT, MISS or UPGRADE.

        On HIT the LRU state is updated and, for writes, the line moves to
        M/dirty (the caller commits the new value via :meth:`write_data`).
        MISS/UPGRADE leave the miss handling (MSHR, messaging) to the tile.
        """
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        line = self.lookup(addr)
        if line is None:
            self.stats.misses += 1
            return MISS
        if is_write and line.state != STATE_M:
            self.stats.upgrades += 1
            return UPGRADE
        self.stats.hits += 1
        self._lru[self._index(addr)].touch(addr)
        if is_write:
            line.dirty = True
        return HIT

    def write_data(self, addr: int, data: bytes) -> None:
        """Commit a store's value into a resident M line."""
        line = self.lookup(addr)
        if line is None or line.state != STATE_M:
            raise RuntimeError(f"store commit to non-M line {addr:#x}")
        line.data = data
        line.dirty = True

    # -- fill / eviction --------------------------------------------------------
    def fill(
        self, addr: int, data: bytes, state: str
    ) -> Optional[L1Line]:
        """Install a fill; returns the evicted dirty victim (if any).

        Clean victims are dropped silently (the directory tolerates stale
        sharers by acknowledging INVs for absent lines).
        """
        if state not in (STATE_S, STATE_M):
            raise ValueError(f"bad fill state {state!r}")
        index = self._index(addr)
        cache_set = self._sets[index]
        lru = self._lru[index]
        victim = None
        existing = cache_set.get(addr)
        if existing is None and len(cache_set) >= self.ways:
            victim_addr = lru.lru()
            lru.remove(victim_addr)
            candidate = cache_set.pop(victim_addr)
            if candidate.state == STATE_M and candidate.dirty:
                self.stats.writebacks += 1
                victim = candidate
        cache_set[addr] = L1Line(addr=addr, state=state, data=data)
        lru.touch(addr)
        return victim

    def invalidate(self, addr: int) -> Optional[L1Line]:
        """Invalidate (INV or RECALL); returns the line if it was present."""
        index = self._index(addr)
        line = self._sets[index].pop(addr, None)
        if line is not None:
            self._lru[index].remove(addr)
            self.stats.invalidations += 1
        return line

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)
