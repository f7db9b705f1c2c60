"""The simulation kernel: one clock, phase-ordered components, wakeups.

A :class:`SimKernel` owns the global cycle counter and an ordered list of
*phases*; each phase holds the components ticked during it.  The stage
ordering the hand-written loops used to encode positionally (network
frame setup → arrival delivery → routers → NIs → local delivery → CMP
events → tiles) is explicit, named, and extensible: a subsystem joins
the simulation by registering components, not by editing the loop.

Scheduling is **event-driven**: instead of polling every component every
cycle, the kernel keeps a timestamp-ordered wakeup heap plus per-phase
active sets.  A component is visited only on cycles it (or a producer
acting on it) asked for via :meth:`SimKernel.wake`; after every visit it
is re-armed from its *idleness contract*:

- a component exposing ``next_wake(cycle)`` names the next cycle it
  needs service (or ``None`` to sleep until woken) — timed components
  like the reliability layer's retransmission deadlines or the sampler's
  interval boundaries;
- otherwise the default contract applies: busy (``has_work()``) means
  "visit me again next cycle", idle means sleep until a producer wakes
  it.

Every visit re-checks ``has_work()`` before ticking, so a *spurious*
wake is always harmless — the correctness obligation on producers is
only that no component is left busy without a pending wake.  Execution
order is deterministic regardless of wake arrival order: due wakeups
drain into their phase's active set and each set is swept in
(phase order, registration index) order — exactly the order a
tick-everything loop visits components in, which is how the test
suite's poll-everything reference scheduler proves this one
bit-identical.

There is one per-cycle loop, :meth:`SimKernel.step`, and nothing
branches in it.  Each registration binds its component's ``tick`` once,
when the component registers (so a class-level wrapper installed before
the component is built sees every call), and the sweep calls that
binding.  ``enable_timing()`` swaps each binding for a wrapper that
accumulates host seconds and tick counts per (phase, component label) —
profiling the simulator, never visible to the simulation.  Subsystems
that attach extra observability (the telemetry layer's sampler/tracer)
record a one-line state note in :attr:`SimKernel.annotations` so
``describe()`` can report it without the kernel knowing about them.
"""

from __future__ import annotations

import heapq
import time
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

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


class _Scheduled:
    """Per-registration scheduling state (one per active component)."""

    __slots__ = (
        "component", "phase", "order", "next_wake_fn", "tick", "heap_due",
        "queued_for", "queued_next",
    )

    def __init__(self, component: Component, phase: "Phase", order: int):
        self.component = component
        self.phase = phase
        #: Registration index within the phase — the deterministic
        #: tie-break for simultaneous wakes.
        self.order = order
        self.next_wake_fn = getattr(component, "next_wake", None)
        #: What the sweep calls: the component's ``tick``, bound once at
        #: registration (wrapped by :meth:`SimKernel.enable_timing`).
        self.tick = component.tick
        #: Earliest heap-scheduled visit cycle (-1: none pending).
        self.heap_due = -1
        #: Cycle this registration is already queued in its phase's
        #: active set for (-1: not queued) — dedups same-cycle wakes.
        self.queued_for = -1
        #: Cycle this registration is already queued in its phase's
        #: *next* active set for — dedups next-cycle re-arms, which
        #: bypass the heap entirely.
        self.queued_next = -1

    def __getstate__(self) -> Tuple[None, Dict[str, object]]:
        # ``tick`` may be a timing closure, which does not pickle; the
        # kernel rebinds it on load (:meth:`SimKernel.__setstate__`).
        return None, {
            slot: getattr(self, slot) for slot in self.__slots__ if slot != "tick"
        }


_reg_order = attrgetter("order")


def _per_phase(table: Dict[Tuple[str, str], float]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for (phase, _), value in table.items():
        out[phase] = out.get(phase, 0) + value
    return out


class Phase:
    """One named stage of the per-cycle loop."""

    __slots__ = ("name", "components", "index", "pending", "pending_next")

    def __init__(self, name: str, index: int = 0):
        self.name = name
        self.components: List[Component] = []
        #: Position in the kernel's sweep order (maintained on insert).
        self.index = index
        #: This cycle's active set: registrations due for a visit.
        self.pending: List[_Scheduled] = []
        #: Next cycle's active set — busy components re-arm here instead
        #: of round-tripping through the wakeup heap (the heap is for
        #: *timed* wakes; the next-cycle case is the hot path).
        self.pending_next: List[_Scheduled] = []

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
        self.wakes_skipped = 0
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
        tick: bool = True,
        passive: bool = False,
    ) -> None:
        """Add a component to a phase (creating the phase at the end of the
        current order if needed).

        ``passive=True`` registers a reactive state-holder: tracked for
        idle detection and wedge snapshots, never scheduled — waking it
        raises.  (``tick=False`` is the legacy spelling of the same
        contract.)  Active components are primed with a wake on the next
        cycle; their first visit either ticks them or lets their
        idleness contract put them to sleep.
        """
        if passive or not tick:
            self._passive.append((phase, component))
            self._reg_of[id(component)] = None
            return
        phase_obj = self.add_phase(phase)
        reg = _Scheduled(component, phase_obj, len(phase_obj.components))
        if self._timing:
            reg.tick = self._timed(reg)
        phase_obj.components.append(component)
        self._reg_of[id(component)] = reg
        self._schedule(reg, self.cycle + 1)

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
        to the next cycle.  Duplicate wakes coalesce; spurious wakes are
        harmless because every visit re-checks ``has_work()``.
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
        now = self.cycle
        sweeping = self._sweep_index
        if sweeping is not None and reg.phase.index > sweeping:
            earliest = now
        else:
            earliest = now + 1
        at = earliest if cycle is None or cycle < earliest else cycle
        if at == now:
            if reg.queued_for != now:
                reg.queued_for = now
                reg.phase.pending.append(reg)
            return
        self._schedule(reg, at)

    def _schedule(self, reg: _Scheduled, at: int) -> None:
        if at == self.cycle + 1:
            # Hot path: next-cycle revisit goes straight into the phase's
            # next active set — no heap traffic.  A stale heap entry for a
            # later cycle may still fire; the visit it triggers re-checks
            # ``has_work()`` and is a no-op unless a legitimate wake
            # queued the component for that cycle anyway.
            if reg.queued_next != at:
                reg.queued_next = at
                reg.phase.pending_next.append(reg)
            return
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
        for reg in self._reg_of.values():
            if reg is not None:
                reg.tick = self._timed(reg)

    def _timed(self, reg: _Scheduled) -> Callable[[int], None]:
        bound = reg.tick
        key = (reg.phase.name, component_label(reg.component))
        seconds = self.component_seconds
        ticks = self.component_ticks
        clock = time.perf_counter

        def tick(cycle: int) -> None:
            start = clock()
            bound(cycle)
            seconds[key] = seconds.get(key, 0.0) + (clock() - start)
            ticks[key] = ticks.get(key, 0) + 1

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
        # Promote the next-cycle active sets queued by the previous sweep
        # (the heap-free re-arm path), stamping the same-cycle dedup
        # marker the heap drain and same-cycle wakes both check.
        for phase in self._phases:
            nxt = phase.pending_next
            if nxt:
                for reg in nxt:
                    reg.queued_for = cycle
                pending = phase.pending
                if pending:
                    pending.extend(nxt)
                    nxt.clear()
                else:
                    phase.pending_next = pending
                    phase.pending = nxt
        # Drain every wakeup due by now into its phase's active set.
        # Entries whose record has since been superseded (an earlier wake
        # coalesced them) or rescheduled into the future are skipped; a
        # fast-forwarded clock makes stale timed entries fire late, which
        # interval components treat as an off-boundary no-op.
        heap = self._heap
        while heap and heap[0][0] <= cycle:
            _, _, reg = heapq.heappop(heap)
            if reg.heap_due == -1 or reg.heap_due > cycle:
                continue
            reg.heap_due = -1
            if reg.queued_for != cycle:
                reg.queued_for = cycle
                reg.phase.pending.append(reg)
        wakes = 0
        skipped = 0
        nxt_cycle = cycle + 1
        for phase in self._phases:
            pending = phase.pending
            if not pending:
                continue
            self._sweep_index = phase.index
            phase.pending = []
            if len(pending) > 1:
                pending.sort(key=_reg_order)
            pending_next = phase.pending_next
            for reg in pending:
                component = reg.component
                fn = reg.next_wake_fn
                if component.has_work():
                    reg.tick(cycle)
                    wakes += 1
                    if fn is None:
                        if component.has_work() and reg.queued_next != nxt_cycle:
                            reg.queued_next = nxt_cycle
                            pending_next.append(reg)
                        continue
                else:
                    skipped += 1
                    if fn is None:
                        continue
                nxt = fn(cycle)
                if nxt is not None:
                    self._schedule(reg, nxt if nxt > cycle else nxt_cycle)
        self.component_wakes += wakes
        self.wakes_skipped += skipped
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
        # survive a pickle: the records travel as a list and the map is
        # rebuilt on load.
        state = self.__dict__.copy()
        state["_reg_of"] = [
            reg for reg in self._reg_of.values() if reg is not None
        ]
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        # Rebuilds the id-keyed map, and every tick binding, which
        # ``_Scheduled`` leaves out because a timing wrapper is a closure
        # (closures do not pickle).
        regs = state.pop("_reg_of")
        self.__dict__.update(state)
        self._reg_of = {id(component): None for _, component in self._passive}
        for reg in regs:
            self._reg_of[id(reg.component)] = reg
            reg.tick = reg.component.tick
            if self._timing:
                reg.tick = self._timed(reg)

    # -- diagnostics --------------------------------------------------------
    def kernel_counters(self) -> Dict[str, int]:
        """Idle-efficiency counters — the ``kernel`` stat group.

        ``component_wakes`` is the number of component visits that
        actually ticked; ``wakes_skipped`` counts visits gated off by
        ``has_work()``.  The tick-everything cost this kernel replaced is
        ``cycles_total × registered components``.
        """
        return {
            "cycles_total": self.cycles_total,
            "component_wakes": self.component_wakes,
            "wakes_skipped": self.wakes_skipped,
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
        visits = self.component_wakes + self.wakes_skipped
        denom = self.cycles_total * active_slots
        fraction = visits / denom if denom else 0.0
        lines.append(
            f"  kernel: {self.cycles_total} cycles, "
            f"{self.component_wakes} wakes ({self.wakes_skipped} skipped), "
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
