"""Miss Status Handling Registers.

The paper's §1 singles out the MSHR as the structure that receives the
depacketized block at the core side — and the reason in-network
decompression must finish before ejection: "the depacktized block has to be
decompressed before it enters into a MSHR entry".  Functionally the MSHR
file coalesces outstanding misses per line and wakes the waiting accesses
when the fill arrives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class MSHREntry:
    """One outstanding miss: the line plus its coalesced waiters."""

    addr: int
    is_write: bool  # True if the outstanding request is a GETX
    issued_cycle: int
    waiters: List[Tuple[int, bool, bool, bool]] = field(default_factory=list)
    # (issue cycle, is_write, is_primary, is_measured) per coalesced access;
    # exactly one waiter in the whole miss's lifetime is primary (the
    # allocating one); is_measured is False for warmup accesses.
    pending_upgrade: bool = False  # a store arrived after a GETS was sent
    # Coherence messages that raced with the in-flight grant and were
    # deferred to fill time (see repro.cmp.tile):
    pending_recall_from: int = -1  # home node waiting for the M line
    pending_inv: bool = False  # invalidate the S fill after one use


class MSHRFile:
    """Bounded set of outstanding misses for one L1."""

    def __init__(self, n_entries: int = 8):
        if n_entries < 1:
            raise ValueError("need at least one MSHR")
        self.n_entries = n_entries
        self.entries: Dict[int, MSHREntry] = {}
        self.allocation_failures = 0

    def lookup(self, addr: int) -> Optional[MSHREntry]:
        return self.entries.get(addr)

    def full(self) -> bool:
        return len(self.entries) >= self.n_entries

    def allocate(self, addr: int, is_write: bool, cycle: int,
                 measured: bool = True) -> MSHREntry:
        if addr in self.entries:
            raise ValueError(f"MSHR already allocated for {addr:#x}")
        if self.full():
            self.allocation_failures += 1
            raise RuntimeError("MSHR file full")
        entry = MSHREntry(addr=addr, is_write=is_write, issued_cycle=cycle)
        entry.waiters.append((cycle, is_write, True, measured))
        self.entries[addr] = entry
        return entry

    def coalesce(self, addr: int, is_write: bool, cycle: int,
                 measured: bool = True) -> MSHREntry:
        """Attach another access to an existing miss."""
        entry = self.entries[addr]
        entry.waiters.append((cycle, is_write, False, measured))
        if is_write and not entry.is_write:
            entry.pending_upgrade = True
        return entry

    def release(self, addr: int) -> MSHREntry:
        return self.entries.pop(addr)

    def __len__(self) -> int:
        return len(self.entries)
