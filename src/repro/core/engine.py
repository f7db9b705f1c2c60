"""The DISCO compressor engine (paper §3.2 step-3, Fig. 4).

Two operating modes, matching §3.3-A:

**Whole-packet jobs** (decompression always; compression when the packet
fits entirely in the VC, e.g. under virtual cut-through / store-and-forward
or for already-small packets).  The engine works on a *copy*; the original
stays in the buffer as a **shadow packet** (SP), still schedulable by the
switch allocator.  On a confidence mis-prediction — the contended port
frees up early — the shadow transmits and the job is invalidated
(**non-blocking** operation).  Only on completion are the VC's flits
replaced and the saved buffer slots released.

**Separate (streaming) compression** (wormhole): a 9-flit packet can never
fully reside in an 8-flit VC, so the engine consumes flits as they arrive,
keeping the bases in its base registers between partial feeds and emitting
merged compressed flits without zero bubbles
(:class:`repro.compression.delta.SeparateDeltaSession`).  Once flits have
physically entered the compressor the packet is committed (it can no longer
be scheduled until the encoding completes) — the hasty-decision risk that
the §3.2 confidence mechanism exists to avoid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.compression.base import CompressionAlgorithm
from repro.compression.delta import SeparateDeltaSession
from repro.core.config import DiscoConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.noc.router import InputVC, Router

JOB_COMPRESS = "compress"
JOB_DECOMPRESS = "decompress"

#: Streaming throughput of the separate-compression datapath (Fig. 4a's
#: unit takes four flits per step).
_STREAM_FLITS_PER_CYCLE = 4


class EngineJob:
    """One in-flight (de)compression inside a DISCO engine."""

    __slots__ = (
        "vc",
        "packet",
        "mode",
        "started",
        "ready",
        "separate",
        "valid",
        "session",
        "consumed",
        "emitted",
        "fault_checked",
    )

    def __init__(
        self, vc: "InputVC", mode: str, started: int, ready: int, separate: bool
    ):
        self.vc = vc
        self.packet = vc.packet
        self.mode = mode
        self.started = started
        self.ready = ready
        self.separate = separate
        self.valid = True
        self.session: Optional[SeparateDeltaSession] = None
        self.consumed = 0  # payload flits taken into the compressor
        self.emitted = 0  # compressed flits written back to the buffer
        self.fault_checked = False  # one fault draw per job (repro.faults)

    @property
    def committed(self) -> bool:
        """True once flits physically entered the streaming compressor."""
        return self.separate and self.consumed > 0


class DiscoCompressorEngine:
    """Per-router compression engine with shadow-packet semantics."""

    def __init__(
        self,
        router: "Router",
        config: DiscoConfig,
        algorithm: CompressionAlgorithm,
    ):
        self.router = router
        self.config = config
        self.algorithm = algorithm
        self.comp_cycles = config.resolved_compression_cycles()
        self.decomp_cycles = config.resolved_decompression_cycles()
        self.jobs: List[EngineJob] = []
        self._supports_separate = (
            config.separate_compression and algorithm.name == "delta"
        )

    # -- capacity ------------------------------------------------------------
    def has_capacity(self) -> bool:
        return len(self.jobs) < self.config.engines_per_router

    def busy(self) -> bool:
        return bool(self.jobs)

    # -- job admission ---------------------------------------------------------
    def can_accept(self, vc: "InputVC", mode: str) -> bool:
        """Structural admission test (the arbitrator filters semantics)."""
        packet = vc.packet
        if packet is None or vc.engine_job is not None:
            return False
        if vc.flits_sent != 0:
            return False  # the head already left; too late (§3.2 step-2)
        if not self.has_capacity():
            return False
        whole = vc.flits_received >= packet.size_flits
        if mode == JOB_COMPRESS:
            if packet.is_compressed or not packet.compressible:
                return False
            if packet.line is None:
                return False
            if whole:
                return True
            # Streaming path needs at least one payload flit buffered.
            return self._supports_separate and vc.flits_received >= 2
        if mode == JOB_DECOMPRESS:
            return packet.is_compressed and whole
        raise ValueError(f"unknown engine mode {mode!r}")

    def start(self, vc: "InputVC", mode: str, cycle: int) -> EngineJob:
        """Commit a packet to the engine (shadow stays in the VC)."""
        if not self.can_accept(vc, mode):
            raise RuntimeError("engine cannot accept this job")
        packet = vc.packet
        assert packet is not None
        separate = (
            mode == JOB_COMPRESS and vc.flits_received < packet.size_flits
        )
        latency = self.comp_cycles if mode == JOB_COMPRESS else self.decomp_cycles
        job = EngineJob(vc, mode, cycle, cycle + latency, separate)
        if separate:
            job.session = SeparateDeltaSession(
                chunk_width=packet.flit_bytes, delta_width=1
            )
        self.jobs.append(job)
        vc.engine_job = job
        tracer = self.router.network.tracer
        if tracer is not None:
            tracer.on_engine(cycle, packet, self.router.node, mode, "start")
        return job

    def abort(self, vc: "InputVC") -> None:
        """Non-blocking escape: the shadow packet got scheduled (§3.2)."""
        job = vc.engine_job
        if job is None:
            return
        if job.committed:  # pragma: no cover - scheduler lock prevents this
            raise RuntimeError("cannot abort a committed streaming job")
        job.valid = False
        vc.engine_job = None
        self.router.network.stats.aborted_jobs += 1
        tracer = self.router.network.tracer
        if tracer is not None and job.packet is not None:
            tracer.on_engine(
                self.router.network.cycle,
                job.packet,
                self.router.node,
                job.mode,
                "abort",
            )

    # -- per-cycle progress -------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if not self.jobs:
            return
        still_running: List[EngineJob] = []
        for job in self.jobs:
            if not job.valid:
                continue  # aborted; drop silently
            if self._advance(job, cycle):
                continue
            still_running.append(job)
        self.jobs = still_running

    def _advance(self, job: EngineJob, cycle: int) -> bool:
        """Progress one job; returns True when it finished."""
        vc = job.vc
        packet = job.packet
        if vc.packet is not packet:  # pragma: no cover - defensive
            raise RuntimeError("engine job outlived its VC assignment")
        if cycle < job.ready:
            return False
        faults = self.router.network.faults
        if faults is not None and not job.fault_checked:
            job.fault_checked = True
            action = faults.engine_action(cycle, self.router.node, job)
            if action == "stall":
                # The engine sits idle for extra cycles; the shadow packet
                # stays schedulable, so the stall is absorbed, not fatal.
                job.ready = cycle + faults.plan.stall_cycles
                return False
            if action == "bitflip":
                self._complete_degraded(job)
                vc.engine_job = None
                self._trace_engine(job, cycle, "degraded")
                return True
        if job.separate:
            done = self._advance_streaming(job)
            if done:
                self._trace_engine(job, cycle, "end")
            return done
        if vc.flits_received < packet.size_flits:  # pragma: no cover
            raise RuntimeError("whole-packet job started on partial packet")
        if job.mode == JOB_COMPRESS:
            self._complete_whole_compression(job)
        else:
            self._complete_decompression(job)
        vc.engine_job = None
        self._trace_engine(job, cycle, "end")
        return True

    def _trace_engine(self, job: EngineJob, cycle: int, what: str) -> None:
        """Lifecycle hook: job outcome (telemetry tracer, when attached)."""
        tracer = self.router.network.tracer
        if tracer is not None and job.packet is not None:
            tracer.on_engine(
                cycle, job.packet, self.router.node, job.mode, what
            )

    # -- streaming (separate) compression ------------------------------------
    def _advance_streaming(self, job: EngineJob) -> bool:
        vc = job.vc
        packet = job.packet
        session = job.session
        assert session is not None and packet.line is not None
        payload_flits = packet.size_flits - 1
        payload_received = max(0, vc.flits_received - 1)
        take = min(_STREAM_FLITS_PER_CYCLE, payload_received - job.consumed)
        if take > 0:
            width = packet.flit_bytes
            start = job.consumed * width
            session.feed(packet.line[start : start + take * width])
            job.consumed += take
            job.emitted = (session.size_bits + 8 * width - 1) // (8 * width)
            # Consumed flits live in the engine's staging registers (the
            # input flit registers of Fig. 4a), so the VC buffer drains as
            # the engine eats — upstream flits can always keep arriving,
            # which makes streaming compression deadlock-free.  Only the
            # head flit stays in the buffer.
            vc.flits_present = 1 + (payload_received - job.consumed)
        if job.consumed < payload_flits:
            return False
        self._complete_streaming(job)
        vc.engine_job = None
        return True

    def _complete_streaming(self, job: EngineJob) -> None:
        vc = job.vc
        packet = job.packet
        stats = self.router.network.stats
        assert job.session is not None
        result = job.session.result()
        if not result.compressible:
            packet.compressible = False
            vc.flits_present = packet.size_flits
            vc.flits_received = packet.size_flits
            stats.incompressible += 1
            return
        before = packet.size_flits
        packet.apply_compression(result)
        packet.compressed_at_hop = packet.hops_traversed
        vc.flits_present = packet.size_flits
        vc.flits_received = packet.size_flits
        stats.compressions += 1
        stats.separate_compressions += 1
        stats.flits_saved += before - packet.size_flits

    # -- whole-packet completion ----------------------------------------------
    def _complete_whole_compression(self, job: EngineJob) -> None:
        packet = job.packet
        stats = self.router.network.stats
        assert packet.line is not None
        result = self.algorithm.compress(packet.line)
        if not result.compressible:
            packet.compressible = False
            stats.incompressible += 1
            return
        saved = packet.apply_compression(result)
        packet.compressed_at_hop = packet.hops_traversed
        vc = job.vc
        vc.flits_present -= saved
        vc.flits_received = packet.size_flits
        if vc.flits_present != packet.size_flits:  # pragma: no cover
            raise RuntimeError("compression bookkeeping out of sync")
        stats.compressions += 1
        stats.flits_saved += saved

    def _complete_degraded(self, job: EngineJob) -> None:
        """Graceful degradation after an engine bit-flip fault (§ fault
        model): the engine output is untrusted and discarded, the packet is
        poisoned so the arbitrator never re-dispatches it, and the line
        travels on the fallback path — uncompressed for a compression job,
        NI-side residual decompression for a decompression job.  No flits
        were consumed (the fault strikes at the ready boundary), so buffer
        bookkeeping is untouched."""
        packet = job.packet
        packet.poisoned = True
        packet.compressible = False
        degraded = self.router.network.degraded
        degraded.poisoned_packets += 1
        degraded.degraded_transmissions += 1

    def _complete_decompression(self, job: EngineJob) -> None:
        packet = job.packet
        stats = self.router.network.stats
        added = packet.apply_decompression()
        # A deliberately decompressed packet is about to be consumed at its
        # destination; re-compressing it would ping-pong with Eq. (2).
        packet.compressible = False
        packet.decompressed_at_hop = packet.hops_traversed
        vc = job.vc
        # The inflated flits materialize in the engine's staging registers
        # and stream into the buffer; occupancy may transiently exceed the
        # VC depth (free_slots clamps at zero, so no credit is leaked).
        vc.flits_present += added
        vc.flits_received = packet.size_flits
        stats.decompressions += 1
        stats.flits_restored += added
