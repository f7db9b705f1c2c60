"""The component protocol the kernel schedules.

A *component* is anything with per-cycle behaviour: a router, a network
interface, the arrival queue, a tile, the CMP event queue, an attached
fault controller.  A bare callable becomes one through
:class:`CallbackComponent`.  The kernel makes one call per visit:

- ``tick(cycle)`` — do this cycle's work and return the next cycle the
  component needs: ``cycle + 1`` while it is busy, a later deadline
  (a retransmission timer, a sampler boundary, a core's next issue
  cycle), or ``None`` to sleep until a producer calls
  :meth:`~repro.sim.kernel.SimKernel.wake`.  A sleeping component must
  be woken by its producers at every idle→busy transition (a router
  when a head flit lands, an NI when a packet is injected...).  The
  kernel passes the cycle it is executing so components need not reach
  back into a shared clock.

A visit may also be spurious — a stale timed wake, or a wake coalesced
with work already done — so a tick with nothing to do must change
nothing and return the right next wake.

``has_work()`` is the idle predicate: it is never consulted by the
per-cycle loop, only by the kernel's idle and wedge diagnostics, the
network's ``quiescent()`` (and through it the CMP fast-forward) and the
test suite's poll-everything reference kernel.

Purely *reactive* state-holders (NUCA banks, the memory controller — they
act only when a message or scheduled event calls into them) still register
with the kernel as **passive** components (``passive=True``): they are
never scheduled — waking one raises — but their ``has_work()``
participates in wedge snapshots so a stuck simulation can name the
component holding state.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable


@runtime_checkable
class Component(Protocol):
    """Anything the kernel can schedule."""

    def has_work(self) -> bool:
        """Idle predicate for diagnostics; never gates a visit."""
        ...

    def tick(self, cycle: int) -> Optional[int]:
        """Advance one cycle; returns the next cycle needed (or None)."""
        ...


class CallbackComponent:
    """Adapt a bare callable into a :class:`Component` that is busy on
    every visit: it runs the callable and asks for the next cycle.  The
    ledger's per-visit kernel cost loop (``sim.noop_wake_ns``) is built
    from these.
    """

    __slots__ = ("label", "_fn")

    def __init__(self, fn: Callable[[int], None], label: str = "callback"):
        self._fn = fn
        self.label = label

    def has_work(self) -> bool:
        return True

    def tick(self, cycle: int) -> int:
        self._fn(cycle)
        return cycle + 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CallbackComponent({self.label})"
