"""Off-chip DRAM model (Table 2: 4 GB, 1 rank, 1 channel, 8 banks).

A fixed per-access latency plus per-DRAM-bank FCFS serialization: two
requests to the same bank queue behind each other, requests to different
banks overlap.  The backing store keeps real line contents so compression
operates on genuine data end-to-end, and — per the paper's §1 argument —
always holds *uncompressed* lines (DRAM cannot hold compressed blocks due
to alignment/mapping, which is why writebacks must be decompressed before
they reach the memory controller).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class MemoryStats:
    reads: int = 0
    writes: int = 0
    total_queue_cycles: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes


class MemoryController:
    """Timing + backing store of one DRAM channel."""

    def __init__(
        self,
        access_latency: int = 120,
        n_banks: int = 8,
        line_source: Optional[Callable[[int], bytes]] = None,
        line_size: int = 64,
    ):
        if access_latency < 1 or n_banks < 1:
            raise ValueError("latency and bank count must be positive")
        self.access_latency = access_latency
        self.n_banks = n_banks
        self.line_size = line_size
        self._line_source = line_source or (lambda addr: b"\x00" * line_size)
        self._store: Dict[int, bytes] = {}
        self._bank_free: List[int] = [0] * n_banks
        self.stats = MemoryStats()

    def _bank_of(self, addr: int) -> int:
        return addr % self.n_banks

    def busy_banks(self, cycle: int) -> int:
        """DRAM banks still serving a request at ``cycle`` (idle/wedge
        diagnostics for the simulation kernel)."""
        return sum(1 for free in self._bank_free if free > cycle)

    def _schedule(self, addr: int, cycle: int) -> int:
        bank = self._bank_of(addr)
        start = max(cycle, self._bank_free[bank])
        self.stats.total_queue_cycles += start - cycle
        done = start + self.access_latency
        self._bank_free[bank] = done
        return done

    # -- data --------------------------------------------------------------
    def line(self, addr: int) -> bytes:
        """Current content of a line (lazily initialized from the source)."""
        data = self._store.get(addr)
        if data is None:
            data = self._line_source(addr)
            self._store[addr] = data
        return data

    # -- timed operations ------------------------------------------------------
    def read(self, addr: int, cycle: int) -> "tuple[int, bytes]":
        """Issue a read at ``cycle``; returns (completion cycle, data)."""
        self.stats.reads += 1
        return self._schedule(addr, cycle), self.line(addr)

    def write(self, addr: int, data: bytes, cycle: int) -> int:
        """Issue a writeback; returns the completion cycle."""
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes")
        self.stats.writes += 1
        self._store[addr] = data
        return self._schedule(addr, cycle)
