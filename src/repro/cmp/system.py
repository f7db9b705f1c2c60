"""The full CMP system: wiring, the simulation loop, and results.

``CmpSystem`` builds the NoC (with DISCO routers when the scheme asks for
them), one tile + home bank per node, and the memory controller — all on
one shared :class:`repro.sim.SimKernel`: the network contributes its five
phases, then the CMP layer appends ``cmp.events`` (scheduled bank/DRAM
callbacks) and ``cmp.tiles`` (core issue), with banks and the memory
controller registered passively (reactive state-holders, tracked for
wedge diagnostics).  Substrate counters are published as named groups on
the kernel's :class:`~repro.sim.stats.StatsRegistry`; the output is a
:class:`SimulationResult` holding the Fig. 5/6/8 latency metric plus two
registry snapshots — full-run and post-warmup — that the energy model
(Fig. 7) consumes.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.cmp.bank import HomeBank
from repro.cmp.config import SystemConfig
from repro.cmp.core_model import CoreModel, CoreProgress, tally
from repro.cmp.messages import Message, MessageKind
from repro.cmp.schemes import SchemePolicy
from repro.cmp.tile import Tile
from repro.cache.memory import MemoryController
from repro.core.disco_router import make_disco_router_factory
from repro.core.scheduling import baseline_priority, disco_priority
from repro.noc.flit import Packet
from repro.noc.network import Network
from repro.noc.stats import NetworkStats
from repro.sim import CounterSnapshot, SimKernel
from repro.telemetry.profiler import RunProfile, profile_from_kernel
from repro.workloads.trace import TraceSet

#: Abort threshold: cycles without any core finishing progress.
_WATCHDOG_LIMIT = 4_000_000


@dataclass
class SimulationResult:
    """Everything one (scheme, workload) run produced.

    The substrate event counts live in two
    :class:`~repro.sim.stats.CounterSnapshot` registry snapshots — the
    full run and the post-warmup (steady-state) window — instead of loose
    fields; read them through ``counters_full``/``counters_measured``.
    """

    scheme: str
    algorithm: str
    workload: str
    cycles: int
    total_primary_misses: int
    total_miss_latency: int
    network: Optional[NetworkStats] = None
    n_routers: int = 0
    measured_primary_misses: int = 0
    measured_miss_latency: int = 0
    measure_start_cycle: int = 0
    snapshot_full: CounterSnapshot = field(default_factory=CounterSnapshot)
    snapshot_measured: CounterSnapshot = field(default_factory=CounterSnapshot)
    #: Observability payload (:mod:`repro.telemetry`): sampler windows and
    #: raw trace events as plain dicts, when the run had telemetry on.
    #: ``None`` by default — excluded from digests, picklable for the
    #: runner's process pool and disk cache.
    telemetry: Optional[Dict] = None
    #: Per-component wall-clock attribution, when the run was profiled.
    profile: Optional[RunProfile] = None

    # -- registry views ------------------------------------------------------
    @property
    def counters_full(self) -> Dict[str, int]:
        """Flat view of the full-run registry snapshot."""
        return self.snapshot_full.flat()

    @property
    def counters_measured(self) -> Dict[str, int]:
        """Flat view of the steady-state (post-warmup) snapshot."""
        return self.snapshot_measured.flat()

    def _full(self, key: str) -> int:
        return int(self.snapshot_full.get_counter(key, 0))

    # -- metrics -------------------------------------------------------------
    @property
    def avg_miss_latency(self) -> float:
        """The paper's metric: average on-chip data access latency.

        Uses the post-warmup (steady-state) samples when a warmup region
        was configured, all misses otherwise.
        """
        if self.measured_primary_misses > 0:
            return self.measured_miss_latency / self.measured_primary_misses
        if self.total_primary_misses == 0:
            return 0.0
        return self.total_miss_latency / self.total_primary_misses

    @property
    def measured_cycles(self) -> int:
        return self.cycles - self.measure_start_cycle

    @property
    def llc_miss_rate(self) -> float:
        lookups = self.bank_hits + self.bank_misses
        if lookups == 0:
            return 0.0
        return self.bank_misses / lookups

    # -- counter accessors ---------------------------------------------------
    @property
    def bank_hits(self) -> int:
        return self._full("bank_hits")

    @property
    def bank_misses(self) -> int:
        return self._full("bank_misses")


class EventQueue:
    """Scheduled callbacks (bank latencies, DRAM completions) — a kernel
    component ticked right after the network phases.

    Entries are ``(due, seq, fn, args)`` and must be picklable, because a
    checkpoint pickles the whole system: ``fn`` a bound method, ``args``
    plain data, never closures."""

    __slots__ = ("_events", "_seq")

    def __init__(self) -> None:
        self._events: List = []
        self._seq = 0

    def schedule(self, due: int, fn: Callable[..., None], *args) -> None:
        heapq.heappush(self._events, (due, self._seq, fn, args))
        self._seq += 1

    def next_due(self) -> Optional[int]:
        return self._events[0][0] if self._events else None

    def has_work(self) -> bool:
        return bool(self._events)

    def tick(self, cycle: int) -> Optional[int]:
        """Run every event due by ``cycle``, then sleep until the earliest
        one left (:meth:`CmpSystem.schedule` wakes the queue for new
        deadlines)."""
        events = self._events
        while events and events[0][0] <= cycle:
            _, _, fn, args = heapq.heappop(events)
            fn(*args)
        return events[0][0] if events else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventQueue({len(self._events)} scheduled)"


class _MemoryComponent:
    """Passive kernel registration for the DRAM controller: never
    scheduled (completions ride the event queue), but its busy state
    shows up in idle checks and wedge snapshots."""

    __slots__ = ("memory", "kernel")

    def __init__(self, memory: MemoryController, kernel: SimKernel):
        self.memory = memory
        self.kernel = kernel

    def has_work(self) -> bool:
        return self.memory.busy_banks(self.kernel.cycle) > 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        busy = self.memory.busy_banks(self.kernel.cycle)
        return f"MemoryController({busy} banks busy)"


class CmpSystem:
    """One simulatable CMP instance (config x scheme x workload)."""

    def __init__(
        self,
        config: SystemConfig,
        scheme: SchemePolicy,
        traces: TraceSet,
        warmup_fraction: float = 0.0,
        prefill: bool = True,
    ):
        if traces.n_cores != config.n_cores:
            raise ValueError(
                f"trace set has {traces.n_cores} cores, "
                f"config has {config.n_cores}"
            )
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.config = config
        self.scheme = scheme
        self.traces = traces
        self.warmup_fraction = warmup_fraction
        self.prefill = prefill
        self.pool = traces.pool
        self.algorithm = scheme.make_algorithm(config.line_size)
        # -- the shared kernel ------------------------------------------------
        #: One clock for everything: the network registers its phases first
        #: (frame/arrivals/routers/NIs/delivery), the CMP layer appends
        #: ``cmp.events`` and ``cmp.tiles`` below.
        self.kernel = SimKernel()
        # -- network --------------------------------------------------------
        router_factory = None
        if scheme.use_disco_routers:
            assert scheme.disco is not None
            router_factory = make_disco_router_factory(
                scheme.disco, self.algorithm
            )
        self.network = Network(
            config.noc, router_factory=router_factory, kernel=self.kernel
        )
        self.network.set_delivery_handler(self._on_packet)
        self.network.packet_priority = (
            disco_priority if scheme.use_disco_routers else baseline_priority
        )
        if scheme.ni_compression:
            self.network.inject_transform = self._cnc_inject
            self.network.eject_transform = self._cnc_eject
        elif scheme.use_disco_routers:
            self.network.eject_transform = self._disco_eject
        # -- tiles / banks / memory ------------------------------------------
        sweeps = traces.sweep_lengths or [0] * config.n_cores
        self.tiles: List[Tile] = []
        for node in range(config.n_cores):
            trace = traces.traces[node]
            steady = len(trace) - sweeps[node]
            warmup = sweeps[node] + int(steady * warmup_fraction)
            self.tiles.append(
                Tile(
                    node,
                    self,
                    CoreModel(node, trace, config.core_window, warmup=warmup),
                )
            )
        #: Replay progress of every core, kept current by the cores
        #: themselves: what :meth:`run` reads each cycle.
        self.progress = CoreProgress(tile.core for tile in self.tiles)
        for tile in self.tiles:
            tile.core.progress = self.progress
        self.banks: List[HomeBank] = [
            HomeBank(node, self) for node in range(config.n_banks)
        ]
        self.memory = MemoryController(
            access_latency=config.memory_latency,
            n_banks=config.total_memory_banks,
            line_source=self.pool.line,
            line_size=config.line_size,
        )
        # -- kernel registration ----------------------------------------------
        self.events = EventQueue()
        self.kernel.register(self.events, phase="cmp.events")
        for tile in self.tiles:
            self.kernel.register(tile, phase="cmp.tiles")
        for bank in self.banks:
            self.kernel.register(bank, phase="cmp.banks", passive=True)
        self.kernel.register(
            _MemoryComponent(self.memory, self.kernel),
            phase="cmp.memory",
            passive=True,
        )
        self._register_stats_groups()
        if prefill:
            self._prefill_llc()
        # -- steady-state registry snapshot (taken when every core crossed
        #    its warmup boundary; energy uses the post-snapshot deltas) -----
        self._snapshot: Optional[CounterSnapshot] = None
        self._measure_start_cycle = 0

    def _prefill_llc(self) -> None:
        """Warm-start the LLC with the workload footprint (checkpoint load).

        Equivalent to simulating a long cold phase — every line the trace
        will touch is installed clean at its home bank in the scheme's
        storage form, with LRU/capacity evictions applied in address order.
        The remaining transient (L1 fill, LLC recency) is excluded via the
        ``warmup_fraction`` window.
        """
        order = getattr(self.traces, "prefill_order", None)
        addresses = order() if order else sorted(self.traces.touched_addresses())
        for addr in addresses:
            bank = self.banks[self.config.home_node(addr)]
            bank._insert(addr, self.pool.line(addr), dirty=False, packet=None)

    # -- counters -----------------------------------------------------------
    def _register_stats_groups(self) -> None:
        """Publish every substrate's counters as named registry groups.

        The network registered its own ``network`` group when it attached
        to the kernel; the CMP layer adds banks, LLC occupancy gauges,
        DRAM, and the L1s.  Counter names keep their historical flat
        spellings — the energy model reads the flattened snapshot.
        """
        registry = self.kernel.stats
        registry.register("banks", self._bank_counters)
        registry.register("llc", self._llc_counters)
        registry.register("memory", self._memory_counters)
        registry.register("l1", self._l1_counters)

    def _bank_counters(self) -> Dict[str, int]:
        reads = writes = tag_lookups = hits = misses = 0
        seg_read = seg_written = comp = decomp = 0
        for bank in self.banks:
            stats = bank.array.stats
            reads += stats.reads
            writes += stats.writes
            tag_lookups += stats.tag_lookups
            hits += stats.hits
            misses += stats.misses
            seg_read += stats.segments_read
            seg_written += stats.segments_written
            comp += bank.side_stats.compressions
            decomp += bank.side_stats.decompressions
        return {
            "bank_reads": reads,
            "bank_writes": writes,
            "bank_tag_lookups": tag_lookups,
            "bank_hits": hits,
            "bank_misses": misses,
            "bank_segments_read": seg_read,
            "bank_segments_written": seg_written,
            "bank_compressions": comp,
            "bank_decompressions": decomp,
        }

    def _llc_counters(self) -> Dict[str, int]:
        resident = used = total = 0
        for bank in self.banks:
            resident += bank.array.resident_lines()
            u, t = bank.array.occupancy()
            used += u
            total += t
        return {
            "llc_resident_lines": resident,
            "llc_segments_used": used,
            "llc_segments_total": total,
        }

    def _memory_counters(self) -> Dict[str, int]:
        return {
            "memory_reads": self.memory.stats.reads,
            "memory_writes": self.memory.stats.writes,
        }

    def _l1_counters(self) -> Dict[str, int]:
        accesses = hits = 0
        for tile in self.tiles:
            stats = tile.l1.stats
            accesses += stats.reads + stats.writes
            hits += stats.hits
        return {"l1_accesses": accesses, "l1_hits": hits}

    def _maybe_snapshot(self) -> None:
        if self._snapshot is None and not self.progress.warming:
            self._snapshot = self.kernel.stats.snapshot()
            self._measure_start_cycle = self.cycle

    # -- clock ---------------------------------------------------------------
    @property
    def cycle(self) -> int:
        return self.kernel.cycle

    def schedule(self, delay: int, fn: Callable[..., None], *args) -> None:
        """Run ``fn(*args)`` after ``delay`` cycles (bank latencies, DRAM).

        ``fn`` and ``args`` must be picklable so scheduled work survives a
        checkpoint: bound methods and plain data, never closures."""
        due = self.cycle + max(0, delay)
        self.events.schedule(due, fn, *args)
        # The event queue may be asleep; wake it for the new deadline.
        self.kernel.wake(self.events, due)

    # -- messaging --------------------------------------------------------------
    def send_message(self, msg: Message, compressed_payload=None) -> None:
        """Wrap a protocol message into a packet and inject it."""
        packet = self._make_packet(msg, compressed_payload)
        self.network.send(packet)

    def _make_packet(self, msg: Message, compressed_payload) -> Packet:
        carries = msg.kind.carries_data
        compressible = False
        decompress_at_dst = False
        is_compressed = False
        if carries and self.scheme.use_disco_routers:
            compressible = True
            decompress_at_dst = msg.needs_raw_at_dst
            if compressed_payload is not None:
                is_compressed = True
        elif compressed_payload is not None:  # pragma: no cover - guard
            raise ValueError("only DISCO sends pre-compressed packets")
        return Packet(
            msg.kind.packet_type,
            msg.src,
            msg.dst,
            flit_bytes=self.config.noc.flit_bytes,
            line=msg.data if carries else None,
            compressed=compressed_payload,
            is_compressed=is_compressed,
            compressible=compressible,
            decompress_at_dst=decompress_at_dst,
            msg=msg,
        )

    def _on_packet(self, node: int, packet: Packet) -> None:
        msg: Message = packet.msg
        kind = msg.kind
        if kind in (MessageKind.MEM_READ, MessageKind.MEM_WB):
            self._memory_request(msg, packet)
        elif kind in (
            MessageKind.GETS,
            MessageKind.GETX,
            MessageKind.WB_DATA,
            MessageKind.INV_ACK,
            MessageKind.RECALL_DATA,
            MessageKind.RECALL_NACK,
            MessageKind.MEM_DATA,
        ):
            self.banks[node].handle(msg, packet)
        else:
            # Data/INV/RECALL arriving can unblock a sleeping core (e.g.
            # one waiting out a full miss window): wake it for this cycle
            # (``cmp.tiles`` sweeps after every delivery phase).
            self.kernel.wake(self.tiles[node])
            self.tiles[node].handle(msg, packet)

    def _memory_request(self, msg: Message, packet: Packet) -> None:
        if msg.kind is MessageKind.MEM_READ:
            done, data = self.memory.read(msg.addr, self.cycle)
            reply = Message(
                kind=MessageKind.MEM_DATA,
                addr=msg.addr,
                src=msg.dst,
                dst=msg.src,
                requester=msg.requester,
                data=data,
            )
            self.schedule(done - self.cycle, self.send_message, reply)
        else:
            assert msg.data is not None
            if packet.is_compressed:  # pragma: no cover - defensive
                raise RuntimeError("DRAM cannot store a compressed line")
            self.memory.write(msg.addr, msg.data, self.cycle)

    # -- NI transforms (scheme hooks) ------------------------------------------
    def _cnc_inject(self, node: int, packet: Packet) -> int:
        if packet.carries_data and not packet.is_compressed:
            compressed = self.algorithm.compress(packet.line)
            self.network.stats.ni_compressions += 1
            if compressed.compressible:
                packet.apply_compression(compressed)
            return self.scheme.compression_cycles
        return 0

    def _cnc_eject(self, node: int, packet: Packet) -> int:
        if packet.carries_data and packet.is_compressed:
            packet.apply_decompression()
            self.network.stats.ni_decompressions += 1
            return self.scheme.decompression_cycles
        return 0

    def _disco_eject(self, node: int, packet: Packet) -> int:
        if packet.is_compressed and packet.decompress_at_dst:
            # The network never found idle time: the residual decompression
            # latency is exposed at the NI (the mis-prediction cost §3.2
            # accepts), before the block may enter the MSHR (§1).
            packet.apply_decompression()
            self.network.stats.ni_decompressions += 1
            return self.scheme.decompression_cycles
        return 0

    # -- the simulation loop ---------------------------------------------------------
    def run(
        self,
        max_cycles: int = _WATCHDOG_LIMIT,
        stall_limit: int = 200_000,
        *,
        pause_at: Optional[int] = None,
        checkpoint_fn: Optional[Callable[["CmpSystem"], None]] = None,
        deadline: Optional[float] = None,
        progress_fn: Optional[Callable[["CmpSystem"], None]] = None,
    ) -> Optional[SimulationResult]:
        """Step the shared kernel until every core drained its trace.

        ``stall_limit`` is the watchdog window: cycles without any core
        progressing before the run is declared wedged (fault-injection
        tests shrink it so a deliberate wedge fails fast).

        The keyword-only hooks serve the checkpoint/supervision layer and
        are all inert by default: ``pause_at`` returns ``None`` once the
        clock reaches it (mid-run state intact, for snapshotting);
        ``checkpoint_fn`` is called after every step (the callee decides
        interval and signal handling); ``deadline`` is a cooperative
        ``time.monotonic()`` budget checked every ~256 steps (raises
        ``TimeoutError``); ``progress_fn`` is a ~256-step heartbeat hook.
        """
        kernel = self.kernel
        progress = self.progress
        last_progress_cycle = 0
        last_outstanding = -1
        steps = 0
        # Positions are capped at the trace lengths, so the issued count
        # reaches this target exactly when every trace has drained.  The
        # loop reads the cores' shared progress aggregate, never a core, so
        # its per-cycle cost does not grow with the core count; one
        # recount confirms the drain before the run may end.
        trace_target = sum(len(tile.core.trace) for tile in self.tiles)
        while True:
            positions = progress.positions
            outstanding = progress.outstanding
            if outstanding == 0:
                if positions >= trace_target:
                    self._check_drained()
                    break
                self._maybe_fast_forward()
            kernel.step()
            cycle = kernel.cycle
            self._maybe_snapshot()
            if pause_at is not None and cycle >= pause_at:
                return None
            if checkpoint_fn is not None:
                checkpoint_fn(self)
            steps += 1
            if not steps & 0xFF and (
                deadline is not None or progress_fn is not None
            ):
                if progress_fn is not None:
                    progress_fn(self)
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"simulation exceeded its time budget at cycle {cycle}"
                    )
            # Watchdog: abort if globally stuck.
            signature = positions + outstanding
            if signature != last_outstanding:
                last_outstanding = signature
                last_progress_cycle = cycle
            elif cycle - last_progress_cycle > stall_limit:
                raise RuntimeError(
                    f"simulation wedged at cycle {cycle} "
                    f"(scheme={self.scheme.name})\n"
                    + self.network.wedge_snapshot()
                    + "\n"
                    + self._wedge_report()
                )
            if cycle > max_cycles:
                raise RuntimeError("simulation exceeded max_cycles")
        return self._collect()

    def _check_drained(self) -> None:
        """Confirm the aggregate's drain with one pass over the cores, so
        a stale aggregate fails the run instead of ending it early."""
        aggregate = self.progress.counts()[:2]
        recount = tally(tile.core for tile in self.tiles)[:2]
        if recount != aggregate:
            raise RuntimeError(
                f"core progress aggregate {aggregate} disagrees with the "
                f"per-core recount {recount} (positions, outstanding) at "
                f"cycle {self.cycle}"
            )

    def _wedge_report(self) -> str:
        """CMP-side companion to the network wedge snapshot."""
        recount = tally(t.core for t in self.tiles)
        outstanding = recount[1]
        stalled = [
            t.node for t in self.tiles if not t.core.done()
        ]
        pending_trans = sum(len(bank.pending) for bank in self.banks)
        busy = ", ".join(
            f"{phase}:{component!r}"
            for phase, component in self.kernel.busy_components()
            if phase.startswith("cmp.")
        )
        return (
            f"cores unfinished: {stalled} ({outstanding} misses in flight); "
            f"core progress (positions, outstanding, warming): aggregate "
            f"{self.progress.counts()}, recount {recount}; "
            f"bank transactions pending: {pending_trans}; "
            f"events scheduled: {self.events.has_work()}\n"
            f"busy cmp components: {busy or 'none'}"
        )

    def _maybe_fast_forward(self) -> None:
        """Skip idle cycles: when nothing is in flight anywhere, jump the
        clock to the next core issue time or scheduled event.  Purely a
        wall-clock optimization — observable behaviour is identical because
        no component can act during the skipped cycles."""
        cycle = self.cycle
        horizon = cycle + 2
        next_interesting = None
        for tile in self.tiles:
            core = tile.core
            if core.outstanding > 0:
                return  # a miss is in flight somewhere
            if core.position < len(core.trace):
                when = core.next_issue_cycle
                if when <= horizon:
                    return
                if next_interesting is None or when < next_interesting:
                    next_interesting = when
        next_event = self.events.next_due()
        if next_event is not None:
            if next_event <= horizon:
                return
            if next_interesting is None or next_event < next_interesting:
                next_interesting = next_event
        if next_interesting is None or not self.network.quiescent():
            return
        self.network.cycle = next_interesting - 1

    # -- results ---------------------------------------------------------------------
    def _collect_telemetry(self) -> Optional[Dict]:
        """Plain-data telemetry payload for :class:`SimulationResult`.

        ``None`` when no telemetry knob was on — results (and the disk
        cache envelope) are byte-identical to pre-telemetry runs.
        """
        sampler = self.network.sampler
        tracer = self.network.tracer
        if sampler is None and tracer is None:
            return None
        payload: Dict = {}
        if sampler is not None:
            payload["windows"] = sampler.to_dicts()
            payload["windows_evicted"] = self.network.telemetry.windows_evicted
        if tracer is not None:
            # Packet pids come from a process-global counter, so their
            # absolute values depend on what ran earlier in the process.
            # Remap to dense run-local ids (order of first appearance is
            # deterministic) so the payload — and with it the disk-cache
            # envelope and pool-vs-serial results — is run-reproducible.
            local_ids: Dict[int, int] = {}
            events = []
            for event in tracer.events:
                record = event.to_dict()
                record["pid"] = local_ids.setdefault(
                    event.pid, len(local_ids)
                )
                events.append(record)
            payload["trace"] = {
                "sample_interval": tracer.sample_interval,
                "event_cap": tracer.event_cap,
                "packets_traced": tracer.stats.packets_traced,
                "events_dropped": tracer.dropped,
                "events": events,
            }
        return payload

    def _collect(self) -> SimulationResult:
        total_latency = sum(
            t.core.stats.total_miss_latency for t in self.tiles
        )
        total_primary = sum(
            t.core.stats.primary_misses for t in self.tiles
        )
        full = self.kernel.stats.snapshot()
        if self._snapshot is not None:
            measured = full.delta(self._snapshot)
        else:
            measured = full
        return SimulationResult(
            telemetry=self._collect_telemetry(),
            profile=(
                profile_from_kernel(self.kernel)
                if self.kernel.timing_enabled
                else None
            ),
            scheme=self.scheme.name,
            algorithm=self.scheme.algorithm_name,
            workload=self.traces.profile.name,
            cycles=self.cycle,
            total_primary_misses=total_primary,
            total_miss_latency=total_latency,
            network=self.network.stats,
            n_routers=self.config.noc.n_nodes,
            measured_primary_misses=sum(
                t.core.stats.measured_primary_misses for t in self.tiles
            ),
            measured_miss_latency=sum(
                t.core.stats.measured_miss_latency for t in self.tiles
            ),
            measure_start_cycle=self._measure_start_cycle,
            snapshot_full=full,
            snapshot_measured=measured,
        )
