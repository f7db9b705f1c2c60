"""The poll-everything reference scheduler for the invariance tests.

:class:`TickAllKernel` visits every registered component every cycle
(``has_work()``-gated), ignores wakeups and discards what each tick
returns — the loop the event-driven :class:`~repro.sim.kernel.SimKernel`
replaced.  Matching results prove that no producer leaves a busy
component without a wake and that timed wakeups (retransmission
deadlines, sampler intervals) fire on the right cycles, which the golden
digests alone do not exercise.
"""

from repro.cmp import system
from repro.experiments import runner
from repro.sim.kernel import SimKernel


class TickAllKernel(SimKernel):
    def _schedule(self, reg, at):
        pass  # every component is polled every cycle anyway

    def step(self):
        self.cycle += 1
        self.cycles_total += 1
        for phase in self._phases:
            for component in phase.components:
                if component.has_work():
                    component.tick(self.cycle)
                    self.component_wakes += 1
        return self.cycle


def simulate_tick_all(spec, monkeypatch):
    """A fresh (never cached) run of ``spec`` on the reference kernel."""
    monkeypatch.setattr(system, "SimKernel", TickAllKernel)
    return runner._simulate(spec)
