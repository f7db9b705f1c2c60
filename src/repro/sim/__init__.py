"""The unified simulation kernel.

Every cycle-level simulator in this repo (the standalone NoC, the full CMP
system) used to hand-roll its own clock and tick loop.  ``repro.sim``
factors that out:

- :class:`~repro.sim.component.Component` — the protocol a simulatable
  object implements (``tick(cycle)``, which returns the next cycle it
  needs, and the ``has_work()`` idle predicate);
- :class:`~repro.sim.kernel.SimKernel` — the global clock plus
  phase-ordered component registration and the single ``step()`` loop;
- :class:`~repro.sim.stats.StatsRegistry` — named, mergeable counter
  groups sampled into :class:`~repro.sim.stats.CounterSnapshot` objects
  (full-run and post-warmup views of the same registry).

The kernel is deliberately free of wall-clock and randomness: stepping a
kernel twice from the same component state produces bit-identical results,
which is what lets the parallel experiment runner
(:mod:`repro.experiments.runner`) promise serial/parallel equivalence.
"""

from repro.sim.component import CallbackComponent, Component
from repro.sim.kernel import Phase, SimKernel
from repro.sim.stats import CounterSnapshot, StatsRegistry, merge_snapshots

__all__ = [
    "CallbackComponent",
    "Component",
    "CounterSnapshot",
    "Phase",
    "SimKernel",
    "StatsRegistry",
    "merge_snapshots",
]
