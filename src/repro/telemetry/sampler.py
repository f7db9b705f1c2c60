"""Windowed time-series sampling of the kernel's stats registry.

End-of-run :class:`~repro.sim.stats.CounterSnapshot` aggregates can show
*that* DISCO hid compression latency inside queueing delay, but not
*when* or *where*: a retransmission storm in cycle window [4096, 8192)
and a quiet tail average out to the same totals.  The
:class:`TimeSeriesSampler` is a kernel component that snapshots the
registry every ``interval`` cycles and stores the **delta** against the
previous boundary — per-window injected packets, link flits,
compressions, retransmissions, degraded transmissions... — so any
counter becomes a curve over the run.

Memory is bounded: windows live in a ring buffer of ``capacity`` entries
(oldest evicted first, evictions counted), so an arbitrarily long run
records at most ``capacity`` windows.  Gauges — instantaneous values
like per-router buffer occupancy that deltas cannot express — are
sampled at each boundary through registered callables.

The sampler only *reads* simulation state; attaching it never changes a
digest.  Window boundaries are stamped with start/end cycles rather than
assumed equidistant, because the CMP fast-forward can jump the shared
clock over idle regions.  :meth:`TimeSeriesSampler.to_dicts` is the
plain-data view the simulation result carries.  (The service's
wall-clock rates live in :mod:`repro.telemetry.events`.)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.sim.kernel import SimKernel
from repro.sim.stats import CounterSnapshot, TelemetryStats

Gauge = Callable[[], float]


@dataclass
class SampleWindow:
    """One sampling interval: counter deltas + gauge readings."""

    #: Monotonic window number (survives ring-buffer eviction, so the
    #: first retained window of a long run is not number 0).
    index: int
    start_cycle: int
    end_cycle: int
    #: Registry counters accumulated within this window.
    delta: CounterSnapshot
    #: Instantaneous gauge values at the window's end boundary.
    gauges: Dict[str, float] = field(default_factory=dict)


class TimeSeriesSampler:
    """Kernel component: periodic registry snapshots into windowed deltas."""

    def __init__(
        self,
        kernel: SimKernel,
        interval: int,
        capacity: int = 256,
        stats: Optional[TelemetryStats] = None,
    ):
        if interval < 1:
            raise ValueError("sampler interval must be at least 1 cycle")
        if capacity < 1:
            raise ValueError("sampler capacity must be at least 1")
        self.kernel = kernel
        self.interval = interval
        self.capacity = capacity
        self.stats = stats if stats is not None else TelemetryStats()
        self._windows: Deque[SampleWindow] = deque(maxlen=capacity)
        self._gauges: Dict[str, Gauge] = {}
        self._base: Optional[CounterSnapshot] = None
        self._base_cycle = 0
        self._next_index = 0

    # -- configuration -------------------------------------------------------
    def add_gauge(self, name: str, fn: Gauge) -> None:
        """Register an instantaneous reading sampled at every boundary."""
        if name in self._gauges:
            raise ValueError(f"gauge {name!r} already registered")
        self._gauges[name] = fn

    # -- kernel component protocol -------------------------------------------
    def has_work(self) -> bool:
        return True  # the off-boundary tick is a single modulo

    def tick(self, cycle: int) -> int:
        """Close a window on a boundary, then sleep until the next one."""
        off = cycle % self.interval
        if not off:
            self.sample(cycle)
        return cycle + self.interval - off

    def sample(self, cycle: int) -> SampleWindow:
        """Close the current window at ``cycle`` (also usable manually,
        e.g. to flush a final partial window after a drain)."""
        snapshot = self.kernel.stats.snapshot()
        base = self._base if self._base is not None else CounterSnapshot()
        window = SampleWindow(
            index=self._next_index,
            start_cycle=self._base_cycle,
            end_cycle=cycle,
            delta=snapshot.delta(base),
            gauges={name: fn() for name, fn in self._gauges.items()},
        )
        if len(self._windows) == self.capacity:
            self.stats.windows_evicted += 1
        self._windows.append(window)
        self._next_index += 1
        self._base = snapshot
        self._base_cycle = cycle
        self.stats.windows_sampled += 1
        return window

    # -- views ----------------------------------------------------------------
    def windows(self) -> List[SampleWindow]:
        return list(self._windows)

    def to_dicts(self) -> List[Dict]:
        """Plain-data view of the retained windows (picklable/JSON-able)."""
        return [
            {
                "index": window.index,
                "start_cycle": window.start_cycle,
                "end_cycle": window.end_cycle,
                "counters": window.delta.to_dict(),
                "gauges": dict(window.gauges),
            }
            for window in self._windows
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TimeSeriesSampler(every {self.interval} cycles, "
            f"{len(self._windows)}/{self.capacity} windows)"
        )
