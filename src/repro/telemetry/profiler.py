"""Run-level wall-clock profiling of the simulator itself.

``SimKernel.enable_timing()`` wraps every registered component's tick
and accumulates host seconds and tick counts per (phase, component
label), which also sum to per-phase totals; this module turns those dicts
into a :class:`RunProfile` — a picklable value that rides inside
``SimulationResult`` through the process pool and the disk cache — and
aggregates profiles across a campaign into the ``profile.json`` the
runner emits (top-k hot components by attributed wall-clock).

Profiling measures the *simulator*, not the simulation: it reports where
host time goes (router switch allocation? engine modelling? stats
sampling?) so optimisation effort lands on the real hot path.  Numbers
are wall-clock and therefore machine- and load-dependent — compare runs
on the same host, and expect cached results to carry the profile of the
run that populated the cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.kernel import SimKernel

#: ``(phase, component label)`` — the attribution key.
Key = Tuple[str, str]


@dataclass
class RunProfile:
    """Wall-clock attribution for one simulation run (picklable)."""

    #: Host seconds attributed to each (phase, component-label) pair.
    component_seconds: Dict[Key, float] = field(default_factory=dict)
    #: Ticks executed per (phase, component-label) pair.
    component_ticks: Dict[Key, int] = field(default_factory=dict)
    #: Host seconds per phase (includes scheduling overhead the
    #: per-component numbers cannot see).
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_ticks: Dict[str, int] = field(default_factory=dict)
    #: End-to-end wall seconds of the run (simulate + collect), when the
    #: caller measured it; 0.0 otherwise.
    wall_seconds: float = 0.0
    #: Simulated cycles covered (for cycles/sec throughput).
    cycles: int = 0
    #: Number of runs merged into this profile (1 for a single run).
    runs: int = 1

    def total_attributed(self) -> float:
        return sum(self.component_seconds.values())

    def merge(self, other: "RunProfile") -> "RunProfile":
        """Key-wise sum of two profiles (campaign aggregation)."""
        out = RunProfile(
            component_seconds=dict(self.component_seconds),
            component_ticks=dict(self.component_ticks),
            phase_seconds=dict(self.phase_seconds),
            phase_ticks=dict(self.phase_ticks),
            wall_seconds=self.wall_seconds + other.wall_seconds,
            cycles=self.cycles + other.cycles,
            runs=self.runs + other.runs,
        )
        for key, value in other.component_seconds.items():
            out.component_seconds[key] = (
                out.component_seconds.get(key, 0.0) + value
            )
        for key, ticks in other.component_ticks.items():
            out.component_ticks[key] = out.component_ticks.get(key, 0) + ticks
        for name, value in other.phase_seconds.items():
            out.phase_seconds[name] = out.phase_seconds.get(name, 0.0) + value
        for name, ticks in other.phase_ticks.items():
            out.phase_ticks[name] = out.phase_ticks.get(name, 0) + ticks
        return out

    def top_components(self, k: int = 10) -> List[Dict]:
        """The ``k`` hottest (phase, component) pairs by attributed
        seconds, with share-of-attributed-time and per-tick cost."""
        total = self.total_attributed()
        ranked = sorted(
            self.component_seconds.items(),
            key=lambda item: (-item[1], item[0]),
        )
        out: List[Dict] = []
        for (phase, label), seconds in ranked[:k]:
            ticks = self.component_ticks.get((phase, label), 0)
            out.append(
                {
                    "phase": phase,
                    "component": label,
                    "seconds": seconds,
                    "share": seconds / total if total else 0.0,
                    "ticks": ticks,
                    "us_per_tick": (seconds / ticks * 1e6) if ticks else 0.0,
                }
            )
        return out

    def to_dict(self, top_k: int = 10) -> Dict:
        """JSON-able view (tuple keys flattened as ``phase/label``)."""
        return {
            "runs": self.runs,
            "cycles": self.cycles,
            "wall_seconds": self.wall_seconds,
            "attributed_seconds": self.total_attributed(),
            "cycles_per_second": (
                self.cycles / self.wall_seconds if self.wall_seconds else 0.0
            ),
            "top_components": self.top_components(top_k),
            "phase_seconds": {
                name: self.phase_seconds[name]
                for name in sorted(self.phase_seconds)
            },
            "component_seconds": {
                f"{phase}/{label}": seconds
                for (phase, label), seconds in sorted(
                    self.component_seconds.items()
                )
            },
        }


def profile_from_kernel(
    kernel: SimKernel, *, wall_seconds: float = 0.0, cycles: Optional[int] = None
) -> RunProfile:
    """Snapshot a kernel's timing accumulators into a profile value."""
    return RunProfile(
        component_seconds=dict(kernel.component_seconds),
        component_ticks=dict(kernel.component_ticks),
        phase_seconds=dict(kernel.phase_seconds),
        phase_ticks=dict(kernel.phase_ticks),
        wall_seconds=wall_seconds,
        cycles=kernel.cycle if cycles is None else cycles,
    )


def merge_profiles(profiles: List[RunProfile]) -> Optional[RunProfile]:
    """Campaign-level aggregate; ``None`` when no run carried a profile."""
    merged: Optional[RunProfile] = None
    for profile in profiles:
        if profile is None:
            continue
        merged = profile if merged is None else merged.merge(profile)
    return merged


def write_profile(path: str, profile: RunProfile, *, top_k: int = 10) -> Dict:
    """Write ``profile.json``; returns the written dict."""
    payload = profile.to_dict(top_k)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def render_profile(profile: RunProfile, *, top_k: int = 10) -> str:
    """Terminal-friendly top-k table (used by the runner's verbose log)."""
    lines = [
        f"profile: {profile.runs} run(s), {profile.cycles} cycles, "
        f"{profile.wall_seconds:.2f}s wall, "
        f"{profile.total_attributed():.2f}s attributed"
    ]
    for row in profile.top_components(top_k):
        lines.append(
            f"  {row['share']:6.1%}  {row['seconds']:8.3f}s  "
            f"{row['us_per_tick']:8.2f}us/tick  "
            f"{row['phase']}/{row['component']}"
        )
    return "\n".join(lines)
