"""Segmented compressed cache bank (the capacity side of cache compression).

A conventional set holds ``ways`` fixed 64-byte lines.  A compressed set
decouples tags from data: it carries ``ways * tag_factor`` tags and a data
area of ``ways * line_size`` bytes managed in small segments (8 bytes by
default), so a line occupies only ``ceil(compressed_size / segment)``
segments.  This is the variable-segment organization used by compressed
caches since Alameldeen & Wood (ISCA'04), and it is what turns a
compression *ratio* into a real *miss-rate* reduction in the experiments.

In uncompressed mode (``tag_factor=1`` and every line stored at full size)
the structure degenerates to a standard set-associative array, which is how
the baseline scheme uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import LRUPolicy


@dataclass
class BankLine:
    """One resident line of a bank data array."""

    addr: int
    data: bytes  # current (uncompressed) content
    stored_bytes: int  # footprint actually occupied (compressed size)
    dirty: bool = False
    compressed_payload: object = None  # CompressedLine when stored compressed

    def segments(self, segment_bytes: int) -> int:
        return max(1, (self.stored_bytes + segment_bytes - 1) // segment_bytes)


@dataclass
class BankStats:
    """Per-bank event counters (feed the CACTI-style energy model)."""

    reads: int = 0
    writes: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    segments_read: int = 0
    segments_written: int = 0
    tag_lookups: int = 0


class _Set:
    """One set: tags + segment budget + LRU order."""

    __slots__ = ("lines", "lru")

    def __init__(self) -> None:
        self.lines: Dict[int, BankLine] = {}
        self.lru = LRUPolicy()


class CompressedBankArray:
    """Data array of one NUCA bank with segment-granular allocation."""

    def __init__(
        self,
        n_sets: int,
        ways: int,
        line_size: int = 64,
        tag_factor: int = 2,
        segment_bytes: int = 8,
        index_stride: int = 1,
    ):
        """``index_stride`` strips the bank-interleaving bits: a NUCA home
        bank receiving every ``n_banks``-th line passes ``index_stride =
        n_banks`` so consecutive homed lines map to consecutive sets
        (otherwise the bank-select and set-index bits alias and most sets
        go unused)."""
        if n_sets < 1 or ways < 1:
            raise ValueError("n_sets and ways must be positive")
        if tag_factor < 1:
            raise ValueError("tag_factor must be at least 1")
        if line_size % segment_bytes:
            raise ValueError("line_size must be a multiple of segment_bytes")
        if index_stride < 1:
            raise ValueError("index_stride must be positive")
        self.n_sets = n_sets
        self.ways = ways
        self.line_size = line_size
        self.tag_factor = tag_factor
        self.segment_bytes = segment_bytes
        self.index_stride = index_stride
        self.max_tags = ways * tag_factor
        self.segment_budget = ways * line_size // segment_bytes
        self._sets = [_Set() for _ in range(n_sets)]
        self.stats = BankStats()

    # -- addressing -----------------------------------------------------------
    def set_index(self, addr: int) -> int:
        return (addr // self.index_stride) % self.n_sets

    def _set_for(self, addr: int) -> _Set:
        return self._sets[self.set_index(addr)]

    def _used_segments(self, cache_set: _Set) -> int:
        return sum(
            line.segments(self.segment_bytes)
            for line in cache_set.lines.values()
        )

    # -- queries ----------------------------------------------------------------
    def lookup(self, addr: int, touch: bool = True) -> Optional[BankLine]:
        """Tag match; counts a read access on hit."""
        cache_set = self._set_for(addr)
        self.stats.tag_lookups += 1
        line = cache_set.lines.get(addr)
        if line is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self.stats.reads += 1
        self.stats.segments_read += line.segments(self.segment_bytes)
        if touch:
            cache_set.lru.touch(addr)
        return line

    def occupancy(self) -> Tuple[int, int]:
        """(used segments, total segments) across all sets."""
        used = sum(self._used_segments(s) for s in self._sets)
        return used, self.n_sets * self.segment_budget

    def resident_lines(self) -> int:
        return sum(len(s.lines) for s in self._sets)

    # -- updates ----------------------------------------------------------------
    def insert(
        self,
        addr: int,
        data: bytes,
        stored_bytes: Optional[int] = None,
        dirty: bool = False,
        compressed_payload: object = None,
    ) -> List[BankLine]:
        """Insert/overwrite a line; returns the victims evicted to make room.

        ``stored_bytes`` defaults to the full line size (uncompressed
        storage).  Victims are chosen LRU-first until both a tag and enough
        segments are free; the caller writes dirty victims back to memory.
        """
        if len(data) != self.line_size:
            raise ValueError(
                f"line must be {self.line_size} bytes, got {len(data)}"
            )
        footprint = self.line_size if stored_bytes is None else stored_bytes
        if not 1 <= footprint <= self.line_size:
            raise ValueError(f"stored_bytes {footprint} out of range")
        cache_set = self._set_for(addr)
        new_line = BankLine(
            addr=addr,
            data=data,
            stored_bytes=footprint,
            dirty=dirty,
            compressed_payload=compressed_payload,
        )
        old = cache_set.lines.pop(addr, None)
        if old is not None:
            cache_set.lru.remove(addr)
            new_line.dirty = new_line.dirty or old.dirty
        victims = self._make_room(
            cache_set, new_line.segments(self.segment_bytes)
        )
        cache_set.lines[addr] = new_line
        cache_set.lru.touch(addr)
        self.stats.writes += 1
        self.stats.segments_written += new_line.segments(self.segment_bytes)
        return victims

    def _make_room(self, cache_set: _Set, need_segments: int) -> List[BankLine]:
        if need_segments > self.segment_budget:
            raise ValueError("line larger than a whole set's data budget")
        victims: List[BankLine] = []
        while (
            len(cache_set.lines) >= self.max_tags
            or self._used_segments(cache_set) + need_segments
            > self.segment_budget
        ):
            victim_addr = cache_set.lru.lru()
            cache_set.lru.remove(victim_addr)
            victim = cache_set.lines.pop(victim_addr)
            victims.append(victim)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.dirty_evictions += 1
        return victims

    def invalidate(self, addr: int) -> Optional[BankLine]:
        """Drop a line (no writeback bookkeeping here)."""
        cache_set = self._set_for(addr)
        line = cache_set.lines.pop(addr, None)
        if line is not None:
            cache_set.lru.remove(addr)
        return line

    def mark_dirty(self, addr: int) -> None:
        line = self._set_for(addr).lines.get(addr)
        if line is None:
            raise KeyError(f"line {addr:#x} not resident")
        line.dirty = True
