"""Trace-driven core model.

Each core replays its synthetic access stream: after the previous access
*issues*, it waits the trace's compute ``gap`` and issues the next one —
unless its miss window (``core_window`` outstanding L1 misses, standing in
for a 4-issue OoO core's MLP) is full or the L1's MSHR file is saturated,
in which case it stalls.  L1 hits complete immediately; misses complete
when the tile fills the line.

The Fig. 5/6/8 metric — average on-chip data access latency of L1 misses —
is accumulated here: one sample per primary (non-coalesced) miss, from
issue to fill.

Each core also keeps a :class:`CoreProgress` aggregate current as its
position and miss count change.  :class:`repro.cmp.system.CmpSystem`
hands all of its cores one shared aggregate, so the run loop's done
check, watchdog and warmup-snapshot trigger cost the same per cycle on
256 cores as on 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from repro.workloads.trace import MemoryAccess


@dataclass
class CoreStats:
    accesses_issued: int = 0
    hits: int = 0
    primary_misses: int = 0
    coalesced_misses: int = 0
    stall_cycles: int = 0
    total_miss_latency: int = 0
    measured_primary_misses: int = 0
    measured_miss_latency: int = 0
    finished_cycle: int = -1

    @property
    def avg_miss_latency(self) -> float:
        """Steady-state average (falls back to all misses if no warmup)."""
        if self.measured_primary_misses > 0:
            return self.measured_miss_latency / self.measured_primary_misses
        if self.primary_misses == 0:
            return 0.0
        return self.total_miss_latency / self.primary_misses


def tally(cores: Iterable["CoreModel"]) -> Tuple[int, int, int]:
    """``(positions, outstanding, warming)`` counted core by core — the
    reference :class:`CoreProgress` must always equal."""
    positions = outstanding = warming = 0
    for core in cores:
        positions += core.position
        outstanding += core.outstanding
        warming += core.in_warmup()
    return positions, outstanding, warming


class CoreProgress:
    """Replay progress summed over a set of cores.

    ``positions`` counts accesses issued, ``outstanding`` misses in
    flight and ``warming`` cores still inside their warmup region.  The
    cores update it where their own fields change, and a checkpoint
    pickles it with them; the run loop's drain recount
    (:meth:`CmpSystem._check_drained`) is the safety net.
    """

    __slots__ = ("positions", "outstanding", "warming")

    def __init__(self, cores: Iterable["CoreModel"]) -> None:
        self.positions, self.outstanding, self.warming = tally(cores)

    def counts(self) -> Tuple[int, int, int]:
        return self.positions, self.outstanding, self.warming


class CoreModel:
    """One trace-replaying core; the tile drives it each cycle.

    The first ``warmup`` accesses populate the caches but are excluded from
    the latency metric (standard cold-start exclusion); the paper's numbers
    come from gem5 checkpoints past initialization, which this stands in
    for.
    """

    def __init__(self, node: int, trace: List[MemoryAccess], window: int = 4,
                 warmup: int = 0):
        self.node = node
        self.trace = trace
        self.window = window
        self.warmup = warmup
        self.position = 0
        self.outstanding = 0  # in-flight misses (primary + coalesced)
        self.next_issue_cycle = trace[0].gap if trace else 0
        self.stats = CoreStats()
        #: Private until a system shares one aggregate across its cores.
        self.progress = CoreProgress((self,))

    def in_warmup(self) -> bool:
        return self.position < self.warmup

    # -- state queries -------------------------------------------------------
    def done(self) -> bool:
        return self.position >= len(self.trace) and self.outstanding == 0

    def can_issue(self, cycle: int) -> bool:
        return (
            self.position < len(self.trace)
            and cycle >= self.next_issue_cycle
            and self.outstanding < self.window
        )

    def peek(self) -> MemoryAccess:
        return self.trace[self.position]

    # -- transitions (called by the tile) ----------------------------------------
    def issued(self, cycle: int, was_hit: bool, coalesced: bool = False) -> None:
        """The current access entered the memory system."""
        position = self.position + 1
        self.position = position
        progress = self.progress
        progress.positions += 1
        if position == self.warmup:
            progress.warming -= 1
        self.stats.accesses_issued += 1
        if was_hit:
            self.stats.hits += 1
        else:
            self.outstanding += 1
            progress.outstanding += 1
            if coalesced:
                self.stats.coalesced_misses += 1
            else:
                self.stats.primary_misses += 1
        if position < len(self.trace):
            self.next_issue_cycle = cycle + self.trace[position].gap

    def stalled(self) -> None:
        self.stats.stall_cycles += 1

    def miss_completed(self, issue_cycle: int, cycle: int,
                       primary: bool, measured: bool = True) -> None:
        """A fill satisfied one waiting access of this core."""
        self.outstanding -= 1
        self.progress.outstanding -= 1
        if self.outstanding < 0:  # pragma: no cover - invariant guard
            raise RuntimeError(f"core {self.node}: negative outstanding count")
        if primary:
            self.stats.total_miss_latency += cycle - issue_cycle
            if measured:
                self.stats.measured_primary_misses += 1
                self.stats.measured_miss_latency += cycle - issue_cycle

    def finished(self, cycle: int) -> None:
        if self.stats.finished_cycle < 0:
            self.stats.finished_cycle = cycle
