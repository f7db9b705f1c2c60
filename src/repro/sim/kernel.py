"""The simulation kernel: one clock, phase-ordered components, wakeups.

A :class:`SimKernel` owns the global cycle counter and an ordered list of
*phases*; each phase holds the components ticked during it.  The stage
ordering the hand-written loops used to encode positionally (arrival
delivery → routers → NIs → local delivery → CMP events → tiles) is
explicit, named, and extensible: a subsystem joins the simulation by
registering components, not by editing the loop.

Scheduling is **event-driven**: instead of polling every component every
cycle, the kernel keeps a timestamp-ordered wakeup heap plus one active
set per phase, an integer bitset keyed by registration order.  A
component is visited only on cycles it (or a producer acting on it)
asked for, and a visit is one call: ``tick(cycle)`` does the cycle's
work and returns the next cycle the component needs:

- ``cycle + 1`` while it is busy — its bit goes straight back into the
  phase's set, with no heap traffic;
- a later deadline — retransmission timers, sampler interval
  boundaries, a core's next issue cycle — which becomes a heap entry;
- ``None`` to sleep until a producer calls :meth:`SimKernel.wake`.

A wake is an OR into the target phase's set, so duplicate wakes
coalesce for free.  A stale heap entry or a coalesced wake may still
visit a component with nothing to do; that is harmless because a tick
with no work changes nothing and returns the right next wake.  The
correctness obligation on producers is only that no component is left
busy without a pending wake.  Execution order is deterministic
regardless of wake arrival order: each set is swept in bit order and the
phases in phase order — exactly the order a tick-everything loop visits
components in, which is how the test suite's poll-everything reference
scheduler proves this one bit-identical.

There is one per-cycle loop, :meth:`SimKernel.step`: it drains the due
heap entries into their phases' sets, then makes one pass over the
phases, and nothing in it branches on instrumentation.  Each
registration binds its component's ``tick`` once, when the component
registers (so a class-level wrapper installed before the component is
built sees every call), and the sweep calls that binding.
``enable_timing()`` swaps each binding for a wrapper that accumulates
host seconds and tick counts per (phase, component label) — profiling
the simulator, never visible to the simulation.  Subsystems
that attach extra observability (the telemetry layer's sampler/tracer)
record a one-line state note in :attr:`SimKernel.annotations` so
``describe()`` can report it without the kernel knowing about them.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.component import Component
from repro.sim.stats import StatsRegistry


def component_label(component: Component) -> str:
    """Stable profiling label for a component.

    Prefers an explicit ``label`` attribute (``CallbackComponent``),
    falling back to the class name — so all 16 routers of a mesh
    aggregate into one hot-path entry instead of 16 singletons.
    """
    label = getattr(component, "label", None)
    if label:
        return str(label)
    return type(component).__name__


#: The set bits of every byte value, lowest first: an active set below
#: 256 is swept from one lookup.
_BYTE_BITS = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)
#: The same for a set's second byte (bits 8-15).
_HIGH_BYTE_BITS = tuple(tuple(bit + 8 for bit in bits) for bits in _BYTE_BITS)


def _set_bits(bits: int) -> Sequence[int]:
    """Indexes of the set bits of ``bits``, lowest first.

    A set below 2**16 (every phase of a 4x4 system) is two table
    lookups; a wider one goes a byte at a time, which is cheaper than
    peeling bits off a large int one by one."""
    if bits < 65536:
        return _BYTE_BITS[bits & 255] + _HIGH_BYTE_BITS[bits >> 8]
    indexes = []
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) >> 3, "little"):
        if byte:
            for bit in _BYTE_BITS[byte]:
                indexes.append(base + bit)
        base += 8
    return indexes


class _Scheduled:
    """Per-registration scheduling state (one per active component)."""

    __slots__ = ("component", "phase", "bit", "heap_due")

    def __init__(self, component: Component, phase: "Phase", index: int):
        self.component = component
        self.phase = phase
        #: The component's bit in its phase's active set: bit ``index``
        #: for the ``index``-th registration, so sweep order (bit order)
        #: is registration order.
        self.bit = 1 << index
        #: Earliest heap-scheduled visit cycle (-1: none pending).
        self.heap_due = -1


def _per_phase(table: Dict[Tuple[str, str], float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (phase, _), value in table.items():
        out[phase] = out.get(phase, 0) + value
    return out


class Phase:
    """One named stage of the per-cycle loop."""

    __slots__ = ("name", "components", "index", "due", "regs", "ticks")

    def __init__(self, name: str, index: int = 0):
        self.name = name
        self.components: List[Component] = []
        #: Position in the kernel's sweep order (maintained on insert).
        self.index = index
        #: The active set: bit ``i`` marks registration ``i`` due at this
        #: phase's next sweep — this cycle's while the phase has not been
        #: swept yet, the next cycle's once it has.
        self.due = 0
        #: Scheduling records, by registration index.
        self.regs: List[_Scheduled] = []
        #: What the sweep calls, by registration index: each component's
        #: ``tick``, bound once at registration (wrapped by
        #: :meth:`SimKernel.enable_timing`).
        self.ticks: List[Callable[[int], Optional[int]]] = []

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # A timing wrapper is a closure, which does not pickle; the kernel
        # rebinds the ticks on load (:meth:`SimKernel.__setstate__`).
        return None, {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "ticks"
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Phase({self.name!r}, {len(self.components)} components)"


class SimKernel:
    """Global clock + phase-ordered wakeup schedule + stats registry."""

    def __init__(self) -> None:
        self.cycle = 0
        self.stats = StatsRegistry()
        self._phases: List[Phase] = []
        self._phase_by_name: Dict[str, Phase] = {}
        #: Registered but never ticked (reactive state-holders); they count
        #: for idle detection and wedge snapshots only.
        self._passive: List[Tuple[str, Component]] = []
        #: id(component) -> scheduling record (None marks passive).
        self._reg_of: Dict[int, Optional[_Scheduled]] = {}
        #: Timestamp-ordered wakeup heap of ``(due, seq, record)``.
        self._heap: List[Tuple[int, int, _Scheduled]] = []
        self._seq = 0
        #: Index of the phase currently being swept (None outside step).
        self._sweep_index: Optional[int] = None
        #: Idle-efficiency counters (the ``kernel`` stat group).
        self.cycles_total = 0
        self.component_wakes = 0
        self._timing = False
        #: ``(phase, component label) -> seconds/ticks`` accumulated while
        #: ``enable_timing()`` is on.
        self.component_seconds: Dict[Tuple[str, str], float] = {}
        self.component_ticks: Dict[Tuple[str, str], int] = {}
        #: Free-form state notes from attached subsystems (telemetry
        #: sampler/tracer...); rendered by :meth:`describe`.
        self.annotations: Dict[str, str] = {}

    # -- registration -------------------------------------------------------
    def add_phase(self, name: str, *, before: Optional[str] = None) -> Phase:
        """Append a phase (or insert it before an existing one).

        Re-adding an existing name returns the existing phase, so
        independent subsystems can share a phase by agreeing on its name.
        """
        existing = self._phase_by_name.get(name)
        if existing is not None:
            return existing
        phase = Phase(name)
        if before is not None:
            anchor = self._phase_by_name.get(before)
            if anchor is None:
                raise KeyError(f"no phase named {before!r}")
            self._phases.insert(self._phases.index(anchor), phase)
        else:
            self._phases.append(phase)
        for index, existing_phase in enumerate(self._phases):
            existing_phase.index = index
        self._phase_by_name[name] = phase
        return phase

    def register(
        self,
        component: Component,
        phase: str = "main",
        *,
        passive: bool = False,
    ) -> None:
        """Add a component to a phase (creating the phase at the end of the
        current order if needed).

        ``passive=True`` registers a reactive state-holder: tracked for
        idle detection and wedge snapshots, never scheduled — waking it
        raises.  Active components are primed with a visit on the next
        cycle; their first tick either starts their work or returns their
        first wake (``None`` to sleep).
        """
        if passive:
            self._passive.append((phase, component))
            self._reg_of[id(component)] = None
            return
        phase_obj = self.add_phase(phase)
        reg = _Scheduled(component, phase_obj, len(phase_obj.components))
        phase_obj.components.append(component)
        phase_obj.regs.append(reg)
        phase_obj.ticks.append(
            self._timed(reg) if self._timing else component.tick
        )
        self._reg_of[id(component)] = reg
        self.wake(component)

    def phases(self) -> Tuple[str, ...]:
        return tuple(phase.name for phase in self._phases)

    def components(self, phase: Optional[str] = None) -> List[Component]:
        if phase is not None:
            return list(self._phase_by_name[phase].components)
        return [c for p in self._phases for c in p.components]

    # -- wakeup scheduling --------------------------------------------------
    def wake(self, component: Component, cycle: Optional[int] = None) -> None:
        """Request a visit of ``component`` at ``cycle`` (default: as soon
        as legal).

        Producers call this at every state transition that can make a
        sleeping component busy.  Wakes are normalised so the phase sweep
        stays deterministic: a wake landing mid-step can only target the
        *current* cycle if the component's phase has not been swept yet;
        anything else (including wakes scheduled in the past) rounds up
        to the next cycle.  The earliest legal cycle is an OR into the
        phase's active set, a later one a heap entry.  Without ``cycle``
        the wake is that OR alone: the set holds this cycle's visits
        until its phase is swept and the next cycle's from then on.
        Duplicate wakes coalesce; spurious ones are harmless because a
        tick with no work changes nothing.
        """
        reg = self._reg_of.get(id(component))
        if reg is None:
            if id(component) in self._reg_of:
                raise ValueError(
                    f"passive component {component_label(component)} "
                    "cannot be scheduled"
                )
            raise KeyError(
                f"cannot wake unregistered component "
                f"{component_label(component)}"
            )
        phase = reg.phase
        if cycle is None:
            phase.due |= reg.bit
            return
        sweeping = self._sweep_index
        earliest = self.cycle
        if sweeping is None or phase.index <= sweeping:
            earliest += 1
        if cycle <= earliest:
            phase.due |= reg.bit
        else:
            self._schedule(reg, cycle)

    def _schedule(self, reg: _Scheduled, at: int) -> None:
        """A heap entry for a visit at ``at``, later than the earliest
        legal cycle.  Only the earliest pending entry per registration is
        kept; the visit it triggers returns any later wake."""
        if reg.heap_due != -1 and reg.heap_due <= at:
            return
        reg.heap_due = at
        self._seq += 1
        heapq.heappush(self._heap, (at, self._seq, reg))

    # -- instrumentation ----------------------------------------------------
    def enable_timing(self) -> None:
        """Accumulate host seconds + tick counts per (phase, component
        label) — the :class:`RunProfiler` input.

        Wraps every registration's tick binding in a timer; components
        registering later are wrapped as they register.  Profiling of the
        simulator, not the simulation: it cannot change simulated
        behaviour, only report where host time goes.
        """
        if self._timing:
            return
        self._timing = True
        for phase in self._phases:
            phase.ticks = [self._timed(reg) for reg in phase.regs]

    def _timed(self, reg: _Scheduled) -> Callable[[int], Optional[int]]:
        bound = reg.component.tick
        key = (reg.phase.name, component_label(reg.component))
        seconds = self.component_seconds
        ticks = self.component_ticks
        clock = time.perf_counter

        def tick(cycle: int) -> Optional[int]:
            start = clock()
            at = bound(cycle)
            seconds[key] = seconds.get(key, 0.0) + (clock() - start)
            ticks[key] = ticks.get(key, 0) + 1
            return at

        return tick

    @property
    def timing_enabled(self) -> bool:
        return self._timing

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Host seconds per phase, summed over its component labels."""
        return _per_phase(self.component_seconds)

    @property
    def phase_ticks(self) -> Dict[str, int]:
        """Ticks per phase, summed over its component labels."""
        return _per_phase(self.component_ticks)

    # -- the loop -----------------------------------------------------------
    def step(self) -> int:
        """Advance one cycle; returns the new cycle number."""
        self.cycle += 1
        cycle = self.cycle
        self.cycles_total += 1
        # Drain every wakeup due by now into its phase's active set.
        # Entries whose record has since been superseded (an earlier wake
        # coalesced them) or rescheduled into the future are skipped; a
        # fast-forwarded clock makes stale timed entries fire late, which
        # interval components treat as an off-boundary no-op.
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            reg = heapq.heappop(heap)[2]
            due = reg.heap_due
            if due != -1 and due <= cycle:
                reg.heap_due = -1
                reg.phase.due |= reg.bit
        # One pass over the phases: each set is swept in bit
        # (registration) order.  A component asking for the next cycle
        # keeps its bit; any other answer clears it, and a later deadline
        # goes on the heap.
        soon = cycle + 1
        wakes = 0
        for phase in self._phases:
            bits = phase.due
            if not bits:
                continue
            phase.due = 0
            self._sweep_index = phase.index
            wakes += bits.bit_count()
            ticks = phase.ticks
            again = bits
            for index in _BYTE_BITS[bits] if bits < 256 else _set_bits(bits):
                at = ticks[index](cycle)
                if at is None:
                    again ^= 1 << index
                elif at > soon:
                    again ^= 1 << index
                    self._schedule(phase.regs[index], at)
            if again:
                phase.due |= again
        self.component_wakes += wakes
        self._sweep_index = None
        return cycle

    def run(
        self,
        until: Callable[[], bool],
        max_cycles: Optional[int] = None,
    ) -> int:
        """Step until ``until()`` is True; returns cycles stepped.

        Raises :class:`RuntimeError` after ``max_cycles`` steps without the
        predicate holding (the caller attaches its own wedge diagnostics).
        """
        start = self.cycle
        while not until():
            self.step()
            if max_cycles is not None and self.cycle - start > max_cycles:
                raise RuntimeError(
                    f"kernel exceeded {max_cycles} cycles without reaching "
                    "the stop condition"
                )
        return self.cycle - start

    # -- pickling -----------------------------------------------------------
    def __getstate__(self) -> Dict[str, object]:
        # Registrations are keyed by ``id(component)`` and ids do not
        # survive a pickle: the map is rebuilt on load from the phases.
        state = self.__dict__.copy()
        del state["_reg_of"]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Rebuilds the id-keyed map, and every tick binding, which
        # ``Phase`` leaves out because a timing wrapper is a closure
        # (closures do not pickle).
        self.__dict__.update(state)
        self._reg_of = {id(component): None for _, component in self._passive}
        for phase in self._phases:
            for reg in phase.regs:
                self._reg_of[id(reg.component)] = reg
            phase.ticks = [
                self._timed(reg) if self._timing else reg.component.tick
                for reg in phase.regs
            ]

    # -- diagnostics --------------------------------------------------------
    def kernel_counters(self) -> Dict[str, int]:
        """Idle-efficiency counters — the ``kernel`` stat group.

        ``component_wakes`` is the number of component visits (each one
        ``tick`` call).  The tick-everything cost this kernel replaced is
        ``cycles_total × registered components``.
        """
        return {
            "cycles_total": self.cycles_total,
            "component_wakes": self.component_wakes,
        }

    def idle(self) -> bool:
        """True when no component (active or passive) reports work."""
        return not self.busy_components()

    def busy_components(self) -> List[Tuple[str, Component]]:
        """Every component currently reporting work, with its phase name.

        Ordering is deterministic: active components in schedule order
        (phase order, then registration order within the phase), followed
        by passive components sorted by phase name (registration order
        within a name) — so wedge reports diff cleanly across runs.
        """
        busy = [
            (phase.name, component)
            for phase in self._phases
            for component in phase.components
            if component.has_work()
        ]
        busy.extend(
            (phase, component)
            for phase, component in sorted(
                self._passive, key=lambda item: item[0]
            )
            if component.has_work()
        )
        return busy

    def describe(self) -> str:
        """A schedule + instrumentation summary (debug aid).

        One line per phase (component/busy counts), one per passive phase,
        plus the scheduler's active-set fraction, the timing state and any
        subsystem :attr:`annotations`
        (e.g. the telemetry sampler's window setting).
        """
        lines = [f"cycle {self.cycle}"]
        active_slots = sum(len(p.components) for p in self._phases)
        denom = self.cycles_total * active_slots
        fraction = self.component_wakes / denom if denom else 0.0
        lines.append(
            f"  kernel: {self.cycles_total} cycles, "
            f"{self.component_wakes} wakes, "
            f"active-set fraction {fraction:.1%}"
        )
        lines.append(
            "  instrumentation: timing=" + ("on" if self._timing else "off")
        )
        for key in sorted(self.annotations):
            lines.append(f"  {key}: {self.annotations[key]}")
        for phase in self._phases:
            lines.append(
                f"  {phase.name}: {len(phase.components)} components, "
                f"{sum(1 for c in phase.components if c.has_work())} busy"
            )
        passive_phases: Dict[str, List[Component]] = {}
        for phase_name, component in self._passive:
            passive_phases.setdefault(phase_name, []).append(component)
        for phase_name in sorted(passive_phases):
            components = passive_phases[phase_name]
            busy = sum(1 for c in components if c.has_work())
            lines.append(
                f"  {phase_name} (passive): {len(components)} tracked, "
                f"{busy} busy"
            )
        return "\n".join(lines)
