"""Structured simulation statistics: named, mergeable counter groups.

The registry does not own counters — the substrate objects keep their
cheap dataclass counters (``NetworkStats``, ``BankStats``...) and register
a *provider* per group: a callable returning ``{counter_name: value}``.
Sampling all providers yields a :class:`CounterSnapshot`, an immutable
grouped view that supports:

- ``flat()`` — the single-namespace dict the energy model consumes
  (legacy counter names are preserved by the providers);
- ``delta(base)`` — post-warmup (steady-state) windows: final snapshot
  minus the snapshot taken at the warmup boundary;
- ``merge(other)`` — counter-wise sums, for aggregating across runs
  (e.g. summing per-mesh DISCO decompression counts in Fig. 8).

Snapshots are plain picklable data, so they travel through the parallel
runner's process pool and the on-disk result cache unchanged.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, Mapping, Tuple

Provider = Callable[[], Dict[str, float]]


@dataclass
class DegradedStats:
    """Graceful-degradation counters (the ``degraded`` stat group).

    Populated by the fault layer (:mod:`repro.faults`) when a fault plan is
    attached to a network; identically zero otherwise.  The group is always
    registered, so attaching a *zero-fault* plan leaves every snapshot
    bit-identical to a run without the faults layer.
    """

    #: Packets a compressor fault forced onto the uncompressed (or
    #: NI-decompressed) fallback path instead of corrupting in flight.
    degraded_transmissions: int = 0
    #: Packets marked ``poisoned`` by an engine bit-flip fault.
    poisoned_packets: int = 0
    #: Engine jobs whose injected stall was absorbed by the shadow-packet
    #: design (the packet stayed schedulable while the engine idled).
    engine_stalls_absorbed: int = 0
    #: Credits stolen by a fault and later restored by the resync timeout.
    credit_resyncs: int = 0
    #: Transient VC wedges that released before the drain watchdog fired.
    wedge_recoveries: int = 0
    #: Packets dropped at an NI by an injected fault (detected at drain by
    #: the end-to-end integrity reconciliation).
    packets_dropped: int = 0

    def counters(self) -> Dict[str, int]:
        """Registry-provider view of the group (every field, in order)."""
        return asdict(self)


@dataclass
class RecoveredStats:
    """Recovered-fault counters (the ``recovered`` stat group).

    Populated by the reliability layer (:mod:`repro.noc.reliability`).
    Unlike ``degraded``, the group is only registered when retransmission
    or the invariant monitor is enabled — the default fabric carries no
    reliability machinery, so the golden default-mesh snapshots keep their
    pre-reliability layout bit-identically.
    """

    #: Data/control packets re-sent by the source NI replay buffer
    #: (timeout-, NACK-, or invariant-recovery-driven).
    retransmissions: int = 0
    #: Deliveries suppressed at the destination as already-seen sequence
    #: numbers (a retransmitted copy raced the original).
    duplicates_dropped: int = 0
    #: Deliveries rejected at the destination because the payload CRC no
    #: longer matched the send-time CRC (corruption caught before the
    #: endpoint could consume it; a NACK triggers re-delivery).
    crc_rejections: int = 0
    #: Cumulative acks injected by destination NIs.
    acks_sent: int = 0
    #: NACKs injected in response to CRC rejections.
    nacks_sent: int = 0
    #: Packets eventually delivered bit-exact *after* at least one
    #: retransmission or CRC rejection.
    recovered_packets: int = 0
    #: Sum over recovered packets of (delivery cycle - first send cycle);
    #: divide by ``recovered_packets`` for the mean recovery latency.
    recovery_latency_cycles: int = 0
    #: Wedged/stalled VCs squashed by the invariant monitor with their
    #: victim packet requeued through the retransmission path.
    invariant_recoveries: int = 0
    #: Buffered/in-flight flits removed from the fabric by a squash (the
    #: invariant monitor's flit-conservation check accounts for these).
    flits_squashed: int = 0
    #: Replay-buffer entries evicted by the per-flow window bound before
    #: an ack arrived (those packets are no longer recoverable).
    replay_evictions: int = 0
    #: Packets abandoned after the retry cap (left to the integrity
    #: layer's loss detection — a detected outcome, never silent).
    retries_exhausted: int = 0

    def counters(self) -> Dict[str, int]:
        """Registry-provider view of the group (every field, in order)."""
        return asdict(self)


@dataclass
class TelemetryStats:
    """Observability-layer counters (the ``telemetry`` stat group).

    Populated by :mod:`repro.telemetry` when the sampler or packet tracer
    is attached to a network.  Like ``recovered``, the group is only
    registered when a telemetry knob is on — the golden default-mesh
    snapshot layout is unchanged otherwise, and the group is excluded
    from on/off invariance comparisons (it *describes* the telemetry,
    it is not part of the simulated behaviour).
    """

    #: Time-series windows captured by the sampler (including ones later
    #: evicted from the bounded ring buffer).
    windows_sampled: int = 0
    #: Windows evicted from the ring buffer by the capacity bound.
    windows_evicted: int = 0
    #: Packets selected for lifecycle tracing at the sampling rate.
    packets_traced: int = 0
    #: Lifecycle events recorded by the tracer.
    trace_events: int = 0
    #: Events discarded after the hard event cap was reached.
    trace_events_dropped: int = 0

    def counters(self) -> Dict[str, int]:
        """Registry-provider view of the group (every field, in order)."""
        return asdict(self)


class CounterSnapshot(Mapping[str, Dict[str, float]]):
    """An immutable sample of every registered counter group."""

    __slots__ = ("_groups",)

    def __init__(
        self, groups: Mapping[str, Mapping[str, float]] = ()
    ) -> None:
        self._groups: Dict[str, Dict[str, float]] = {
            name: dict(counters) for name, counters in dict(groups).items()
        }

    # -- mapping protocol ---------------------------------------------------
    def __getitem__(self, group: str) -> Dict[str, float]:
        return self._groups[group]

    def __iter__(self) -> Iterator[str]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CounterSnapshot):
            return self._groups == other._groups
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CounterSnapshot({self._groups!r})"

    # -- views --------------------------------------------------------------
    def flat(self) -> Dict[str, float]:
        """All counters in one namespace.

        Counter names are globally unique by convention (providers keep the
        historical flat names); a collision raises so it cannot silently
        shadow a counter.
        """
        out: Dict[str, float] = {}
        for group, counters in self._groups.items():
            for key, value in counters.items():
                if key in out:
                    raise ValueError(
                        f"counter name {key!r} (group {group!r}) collides "
                        "with another group"
                    )
                out[key] = value
        return out

    def get_counter(self, key: str, default: float = 0) -> float:
        """Look a flat counter name up across all groups."""
        for counters in self._groups.values():
            if key in counters:
                return counters[key]
        return default

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {name: dict(counters) for name, counters in self._groups.items()}

    # -- algebra ------------------------------------------------------------
    def delta(self, base: "CounterSnapshot") -> "CounterSnapshot":
        """This snapshot minus ``base`` (missing base counters count as 0).

        The steady-state window of a run: ``final.delta(warmup_boundary)``.
        """
        out: Dict[str, Dict[str, float]] = {}
        for group, counters in self._groups.items():
            base_group = base._groups.get(group, {})
            out[group] = {
                key: value - base_group.get(key, 0)
                for key, value in counters.items()
            }
        return CounterSnapshot(out)

    def merge(self, other: "CounterSnapshot") -> "CounterSnapshot":
        """Counter-wise sum (groups/counters union)."""
        out: Dict[str, Dict[str, float]] = self.to_dict()
        for group, counters in other._groups.items():
            mine = out.setdefault(group, {})
            for key, value in counters.items():
                mine[key] = mine.get(key, 0) + value
        return CounterSnapshot(out)

    # -- pickling (explicit, because of __slots__) --------------------------
    def __getstate__(self) -> Dict[str, Dict[str, float]]:
        return self._groups

    def __setstate__(self, state: Dict[str, Dict[str, float]]) -> None:
        self._groups = state


def merge_snapshots(snapshots: Iterable[CounterSnapshot]) -> CounterSnapshot:
    """Sum an iterable of snapshots (empty iterable -> empty snapshot)."""
    merged = CounterSnapshot()
    for snapshot in snapshots:
        merged = merged.merge(snapshot)
    return merged


class StatsRegistry:
    """Named counter groups, each backed by a provider callable."""

    def __init__(self) -> None:
        self._providers: Dict[str, Provider] = {}

    def register(self, group: str, provider: Provider) -> None:
        """Add a counter group; group names must be unique."""
        if group in self._providers:
            raise ValueError(f"stats group {group!r} already registered")
        self._providers[group] = provider

    def groups(self) -> Tuple[str, ...]:
        return tuple(self._providers)

    def __contains__(self, group: str) -> bool:
        return group in self._providers

    def snapshot(self) -> CounterSnapshot:
        """Sample every provider into one immutable snapshot."""
        return CounterSnapshot(
            {name: provider() for name, provider in self._providers.items()}
        )
