"""The always-on campaign scheduler.

:class:`CampaignService` turns the batch runner into a supervised
service: clients submit jobs (spec sweeps and/or fault campaigns) at any
time, an admission layer sheds overload with structured
:class:`~repro.service.admission.Overloaded` responses, and admitted
work flows through one priority queue into the runner's shared
executor, streaming each unit's result the moment it completes.

Scheduling model
----------------
Every queued unit sits in one heap ordered by client priority, then
global FIFO sequence, and each of the ``workers`` dispatcher threads
takes the heap's best unit whenever it is free — so a higher-priority
unit never waits behind a lower one, and no dispatcher idles while the
heap holds work.  Units backing off after a failure sit in a delayed
set until their deadline, then rejoin the heap.

Execution
---------
The service is the concurrent caller of the runner's
:class:`~repro.experiments.runner.Executor`, the one ``run_specs`` uses:
each dispatcher runs one attempt at a time, so the same cache lookup,
journal transitions and retry rule apply and a killed service resumes
exactly like a killed batch.  The callers differ in one rule: after a
worker death the service respawns the pool and retries the interrupted
unit (until ``REPRO_QUARANTINE_AFTER`` quarantines it) where a batch
falls back to running in-process.  Retries wait in the delayed set, not
in a dispatcher; fault-campaign units skip the cache and the journal.
Stale heartbeat files are swept at startup, and results publish through
the content-addressed caches, so many service processes — on many hosts
— can share one cache directory without corrupting an entry.

Every occurrence goes through one :class:`~repro.telemetry.events.Emitter`
whose ``KINDS`` table declares its sinks — the :class:`ServiceStats`
counters, windowed rates, queue-age samples, flight records and logs —
so ``/stats``, ``/metrics``, the ``queue_full`` hint and the SLOs agree.

Retention
---------
The job table keeps every unfinished job and the newest
:data:`FINISHED_JOB_WINDOW` finished ones; an older finished job leaves
it, and ``/status`` and ``/stream`` answer 404 for it.  With the
runner's bounded result memo this keeps an always-on service's memory
flat however many units it serves.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.runner import (
    DONE,
    INTERRUPTED,
    QUARANTINED,
    RETRY,
    Executor,
    RunSpec,
    default_jobs,
    result_digest,
)
from repro.experiments import supervision
from repro.faults.campaign import run_campaign_payload
from repro.service.admission import (
    AdmissionController,
    AdmissionStats,
    Overloaded,
)
from repro.service.jobs import (
    UNIT_CAMPAIGN,
    UNIT_SPEC,
    Job,
    WorkUnit,
    spec_from_payload,
)
from repro.sim.stats import StatsRegistry
from repro.telemetry.events import Emitter
from repro.telemetry.log import correlation_scope, get_logger
from repro.telemetry.slo import SLOSpec, SLOStatus, default_slos, evaluate

_LOG = get_logger("repro.service")

#: Finished jobs the service keeps addressable, the first finished
#: leaving first; unfinished jobs always stay.
FINISHED_JOB_WINDOW = 256


@dataclass
class ServiceStats:
    """Scheduler counters (the ``service`` stat group)."""

    #: Work units resolved successfully (fresh simulation or cache).
    units_completed: int = 0
    #: Units that exhausted their error retry and failed.
    units_failed: int = 0
    #: Units quarantined after the crash-loop interruption bound.
    units_quarantined: int = 0
    #: Units served straight from the memo/disk caches (no pool trip).
    cache_hits: int = 0
    #: Jobs whose every unit completed.
    jobs_completed: int = 0
    #: Jobs with at least one failed/quarantined unit.
    jobs_failed: int = 0
    #: Re-enqueues after an error or interruption.
    retries: int = 0
    #: Process pools torn down and respawned after a worker death.
    worker_respawns: int = 0
    #: Sum of unit queue ages (milliseconds) at dispatch + sample count;
    #: ``queue_age_ms_total / queue_age_samples`` is the mean queue age.
    queue_age_ms_total: int = 0
    queue_age_samples: int = 0

    def counters(self) -> Dict[str, int]:
        """Registry-provider view of the group (every field, in order)."""
        return asdict(self)


class CampaignService:
    """A supervised, always-on front for the campaign runner."""

    def __init__(
        self,
        workers: Optional[int] = None,
        rate: float = 8.0,
        burst: float = 32.0,
        max_queue_depth: int = 256,
        slos: Optional[Sequence[SLOSpec]] = None,
    ):
        self.workers = max(1, workers or default_jobs())
        self.stats = ServiceStats()
        self.admission = AdmissionController(
            rate=rate,
            burst=burst,
            max_queue_depth=max_queue_depth,
            stats=AdmissionStats(),
        )
        self.registry = StatsRegistry()
        self.registry.register("service", self.stats.counters)
        self.registry.register("admission", self.admission.stats.counters)
        #: Every occurrence's one emit path (counters, rates, samples,
        #: flight records, logs).
        self.events = Emitter(self.stats)
        #: Every unfinished job and the newest ``FINISHED_JOB_WINDOW``
        #: finished ones, by id; ``_finished`` holds those finished ids in
        #: finishing order.
        self.jobs: Dict[str, Job] = {}
        self._finished: Deque[str] = deque()
        self.started_mono: Optional[float] = None
        #: Declarative objectives evaluated over ``events`` (read-only —
        #: SLO state never feeds back into scheduling decisions).
        self.slos: List[SLOSpec] = list(
            slos if slos is not None else default_slos()
        )
        self._slo_lock = threading.Lock()
        self._slo_last = 0.0
        self._slo_burning: Dict[str, float] = {}

        self._cond = threading.Condition()
        #: Queued units, best first by ``WorkUnit.order_key()``.
        self._heap: List[Tuple[Tuple[int, int], WorkUnit]] = []
        self._delayed: List[WorkUnit] = []
        self._inflight = 0
        self._accepting = False
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self.executor = Executor(self.workers, on_respawn=self._respawned)

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "CampaignService":
        if self._threads:
            raise RuntimeError("service already started")
        # Sweep heartbeat orphans from previous (SIGKILLed) incarnations
        # before any supervision arms (the executor arms it with the pool).
        swept = supervision.clean_stale_heartbeats()
        if swept:
            _LOG.info("startup: removed %d stale heartbeat files", swept)
        self._accepting = True
        self.started_mono = time.monotonic()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker_loop,
                args=(index,),
                name=f"repro-service-worker-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        _LOG.info(
            "service up: %d workers, rate %.1f/s burst %.0f, "
            "queue bound %d",
            self.workers,
            self.admission.rate,
            self.admission.burst,
            self.admission.max_queue_depth,
        )
        return self

    def shutdown(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop accepting, optionally drain the backlog, stop everything.

        Returns True when the backlog drained inside ``timeout`` (always
        True with ``drain=False``, which abandons queued units).
        """
        deadline = time.monotonic() + timeout
        drained = True
        with self._cond:
            self._accepting = False
            self._cond.notify_all()
        if drain:
            with self._cond:
                while self.queue_depth() > 0:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        drained = False
                        break
                    self._cond.wait(timeout=min(0.25, remaining))
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=max(0.1, deadline - time.monotonic()))
        self.executor.close(wait=False)
        _LOG.info(
            "service down (%s)", "drained" if drained else "abandoned backlog"
        )
        return drained

    # -- introspection -------------------------------------------------------
    def queue_depth(self) -> int:
        """Queued + delayed + in-flight units (callers may hold _cond)."""
        return len(self._heap) + len(self._delayed) + self._inflight

    def drain_rate(self, seconds: float = 30.0) -> float:
        """Recent completion throughput (units/second)."""
        return self.events.rate("completed", seconds)

    def snapshot(self):
        """One immutable sample of every service counter group."""
        return self.registry.snapshot()

    def live(self) -> bool:
        """Liveness: the dispatcher threads are running."""
        return bool(self._threads) and all(
            thread.is_alive() for thread in self._threads
        )

    @property
    def accepting(self) -> bool:
        return self._accepting

    def heartbeat_lags(self) -> Dict[int, float]:
        """Seconds since each in-flight run's heartbeat was written."""
        beats = supervision.read_heartbeats()
        return {beat.pid: round(beat.age, 3) for beat in beats if beat.pid}

    def ready(self) -> Tuple[bool, Dict]:
        """Readiness + detail: accepting, with queue headroom, workers
        alive, and (when supervision is on) fresh heartbeats.

        ``detail["reasons"]`` names every failing condition — an
        unready probe must say *why* (stale heartbeat pids, queue over
        depth, dead dispatchers) instead of a bare 503.
        """
        with self._cond:
            depth = self.queue_depth()
        reasons: List[str] = []
        if not self._accepting:
            reasons.append("not accepting submissions (draining or stopped)")
        if not self.live():
            dead = [
                thread.name
                for thread in self._threads
                if not thread.is_alive()
            ]
            reasons.append(
                "dispatcher threads dead: " + (", ".join(dead) or "all")
            )
        if depth >= self.admission.max_queue_depth:
            reasons.append(
                f"queue depth {depth} at/over bound "
                f"{self.admission.max_queue_depth}"
            )
        beats = supervision.stale_heartbeats()
        stale = sorted((beat.pid, beat.age) for beat in beats if beat.pid)
        if stale:
            reasons.append(
                "stale heartbeat pids: "
                + ", ".join(f"{pid} ({age:.1f}s)" for pid, age in stale)
            )
        slo_status = self.evaluate_slos()
        burning = [s for s in slo_status if not s.ok]
        detail = {
            "accepting": self._accepting,
            "queue_depth": depth,
            "max_queue_depth": self.admission.max_queue_depth,
            "workers_alive": self.live(),
            "heartbeats": self._heartbeat_summary(),
            "slo": [status.to_dict() for status in slo_status],
            "slo_burning": [status.name for status in burning],
            "reasons": reasons,
        }
        ok = not reasons
        detail["ready"] = ok
        return ok, detail

    def _heartbeat_summary(self) -> Dict:
        """Heartbeat freshness of the runs in flight."""
        directory, lags = supervision.heartbeat_dir(), self.heartbeat_lags()
        summary = {
            "dir": str(directory) if directory else None,
            "workers": len(lags),
            "freshest_age": None,
        }
        if lags:
            summary["freshest_age"] = round(min(lags.values()), 3)
            summary["ages"] = {str(pid): age for pid, age in lags.items()}
        return summary

    # -- SLO evaluation ------------------------------------------------------
    def evaluate_slos(self, publish: bool = False) -> List[SLOStatus]:
        """Evaluate every objective over the service's emitter.

        With ``publish=True`` (the dispatch-path throttle calls it this
        way) a *newly burning* objective emits ``slo_burn`` and
        publishes an ``{"type": "slo_burn"}`` event on every unfinished
        job's stream, so a client watching ``/stream`` sees the fleet
        degrade in-band; recoveries publish ``slo_recovered``.
        Read-only with respect to scheduling.
        """
        elapsed = (
            time.monotonic() - self.started_mono
            if self.started_mono is not None
            else 0.0
        )
        statuses = [
            evaluate(slo, self.events, elapsed=elapsed) for slo in self.slos
        ]
        if not publish:
            return statuses
        with self._slo_lock:
            for status in statuses:
                was_burning = status.name in self._slo_burning
                if not status.ok and not was_burning:
                    self._slo_burning[status.name] = status.burn_rate
                    self.events.emit(
                        "slo_burn",
                        name=status.name,
                        metric=status.metric,
                        value=status.value if status.value is not None else -1.0,
                        objective=status.objective,
                        burn_rate=status.burn_rate,
                    )
                    self._publish_slo_event("slo_burn", status)
                elif status.ok and was_burning:
                    del self._slo_burning[status.name]
                    self.events.emit("slo_recovered", name=status.name)
                    self._publish_slo_event("slo_recovered", status)
        return statuses

    def _publish_slo_event(self, kind: str, status: SLOStatus) -> None:
        event = {"type": kind, **status.to_dict()}
        with self._cond:
            jobs = list(self.jobs.values())
        for job in jobs:
            if not job.finished():
                job.publish(dict(event))

    def _maybe_evaluate_slos(self) -> None:
        """Dispatch-path SLO check, throttled to one evaluation per 2s."""
        now = time.monotonic()
        with self._slo_lock:
            if now - self._slo_last < 2.0:
                return
            self._slo_last = now
        self.evaluate_slos(publish=True)

    # -- submission ----------------------------------------------------------
    def submit(
        self,
        specs: Sequence = (),
        campaigns: Sequence[Dict] = (),
        client: str = "anon",
        priority: int = 5,
    ) -> Union[Job, Overloaded]:
        """Admit-or-shed one submission.

        ``specs`` may be :class:`RunSpec` objects or client dicts (parsed
        and validated here); ``campaigns`` are fault-campaign payloads
        for :func:`~repro.faults.campaign.run_campaign_payload`.  Returns
        the queued :class:`Job`, or the :class:`Overloaded` decision —
        never raises for overload, never blocks beyond O(1) bookkeeping.
        """
        units_payload: List[Tuple[str, object]] = []
        for payload in specs:
            if isinstance(payload, RunSpec):
                units_payload.append((UNIT_SPEC, payload))
            else:
                units_payload.append((UNIT_SPEC, spec_from_payload(payload)))
        for payload in campaigns:
            if not isinstance(payload, dict):
                raise ValueError("campaign payloads must be objects")
            units_payload.append((UNIT_CAMPAIGN, dict(payload)))
        if not units_payload:
            raise ValueError("a submission must carry specs or campaigns")
        if not self._accepting:
            decision = self.admission.shed(
                "queue_full",
                self.admission.MAX_RETRY_AFTER,
                client,
                len(units_payload),
                "service is shutting down",
            )
            self._record_shed(decision, len(units_payload))
            return decision
        with self._cond:
            depth = self.queue_depth()
            decision = self.admission.admit(
                client,
                len(units_payload),
                depth,
                drain_rate=self.drain_rate(),
            )
            if decision is not None:
                self._record_shed(decision, len(units_payload))
                return decision
            job = Job(client, priority, units_payload)
            self.jobs[job.job_id] = job
            for unit in job.units:
                if unit.kind == UNIT_SPEC:
                    self.executor.admit(unit.key, corr=job.correlation)
                self._enqueue_locked(unit)
            self._cond.notify_all()
        self.events.emit(
            "admitted",
            job=job.job_id,
            corr=job.correlation,
            client=client,
            priority=priority,
            units=job.total,
        )
        return job

    def _record_shed(self, decision: Overloaded, units: int) -> None:
        self.events.emit(
            "shed",
            client=decision.client,
            reason=decision.reason,
            units=units,
            retry_after=decision.retry_after,
        )

    def _enqueue_locked(self, unit: WorkUnit) -> None:
        """Queue a unit (callers hold _cond)."""
        unit.enqueued = time.monotonic()
        heapq.heappush(self._heap, (unit.order_key(), unit))

    # -- the worker loop -----------------------------------------------------
    def _worker_loop(self, index: int) -> None:
        while True:
            unit = self._next_unit()
            if unit is None:
                return  # stopping
            try:
                self._execute(unit)
            except BaseException:  # pragma: no cover - last-ditch guard
                _LOG.exception(
                    "worker %d: unhandled error on %s", index, unit.describe()
                )
                self._resolve_failure(unit, "internal scheduler error")
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _next_unit(self) -> Optional[WorkUnit]:
        """The best queued unit; block while nothing is queued."""
        with self._cond:
            while True:
                if self._stopping:
                    return None
                now = time.monotonic()
                self._promote_delayed_locked(now)
                if self._heap:
                    self._inflight += 1
                    return heapq.heappop(self._heap)[1]
                timeout = 0.25
                if self._delayed:
                    soonest = min(u.ready_at for u in self._delayed)
                    timeout = max(0.01, min(timeout, soonest - now))
                self._cond.wait(timeout=timeout)

    def _promote_delayed_locked(self, now: float) -> None:
        if not self._delayed:
            return
        due = [unit for unit in self._delayed if unit.ready_at <= now]
        if not due:
            return
        self._delayed = [u for u in self._delayed if u.ready_at > now]
        for unit in due:
            self._enqueue_locked(unit)

    # -- execution -----------------------------------------------------------
    def _execute(self, unit: WorkUnit) -> None:
        """Run one attempt of a unit under its job's correlation scope.

        Binding the scope here means every log record, journal append
        and flight event the dispatch produces — on this thread —
        carries the submit-time correlation id without any call site
        naming it; the executor hands it to the pool worker as an
        explicit ``_simulate`` argument (contextvars don't cross
        processes).  Campaign units skip the cache and the journal.
        """
        with correlation_scope(unit.job.correlation):
            self.events.emit(
                "dispatch",
                unit=unit.describe(),
                job=unit.job.job_id,
                queue_age_ms=int((time.monotonic() - unit.enqueued) * 1000),
            )
            unit.job.mark_started()
            self._maybe_evaluate_slos()
            spec = unit.spec
            if spec is None:
                kind, value = self.executor.attempt(
                    None, run_campaign_payload, unit.payload
                )
            else:
                cached = self.executor.lookup(spec, unit.key)
                if cached is not None:
                    self._resolve_result(unit, cached, True)
                    return
                kind, value = self.executor.attempt(spec, key=unit.key)
            if kind == DONE:
                self._resolve_result(unit, value, False)
                return
            if kind == INTERRUPTED:
                unit.interruptions += 1
                n, message = unit.interruptions, "worker process died"
            else:
                unit.errors += 1
                n, message = unit.errors, repr(value)
            key = unit.key if spec is not None else None
            verdict, delay = self.executor.decide(kind, n, spec, key, value)
            if verdict == RETRY:
                self._requeue(unit, n, delay, message)
            else:
                self._resolve_failure(unit, message, verdict == QUARANTINED)

    @staticmethod
    def _event(unit: WorkUnit, kind: str, **fields) -> Dict:
        """One unit's ``result``/``failed`` stream event."""
        return {
            "type": kind,
            "job": unit.job.job_id,
            "correlation": unit.job.correlation,
            "index": unit.index,
            "key": unit.key,
            **fields,
        }

    # -- failure/retry plumbing ----------------------------------------------
    def _requeue(
        self, unit: WorkUnit, attempt: int, delay: float, message: str
    ) -> None:
        """Park a retried unit in the delayed set for ``delay`` seconds."""
        unit.ready_at = time.monotonic() + delay
        self.events.emit(
            "retry",
            unit=unit.describe(),
            job=unit.job.job_id,
            attempt=attempt,
            delay=delay,
            error=message,
        )
        with self._cond:
            self._delayed.append(unit)
            self._cond.notify_all()

    # -- resolution ----------------------------------------------------------
    def _resolve_result(self, unit: WorkUnit, value, cached: bool) -> None:
        """Count a success and publish its ``result`` event."""
        spec = unit.spec
        self.events.emit(
            "completed",
            unit=unit.describe(),
            job=unit.job.job_id,
            cached=cached,
            scheme=spec.scheme if spec is not None else None,
        )
        if spec is None:
            event = self._event(unit, "result", campaign=value)
        else:
            event = self._event(
                unit,
                "result",
                digest=result_digest(value),
                cached=cached,
                scheme=spec.scheme,
                workload=spec.workload,
                cycles=value.cycles,
                avg_miss_latency=value.avg_miss_latency,
            )
        unit.job.publish(event)
        self._maybe_finish(unit.job)

    def _resolve_failure(
        self, unit: WorkUnit, message: str, quarantined: bool = False
    ) -> None:
        if quarantined:
            self.events.emit(
                "quarantine",
                unit=unit.describe(),
                job=unit.job.job_id,
                corr=unit.job.correlation,
                key=unit.key,
                attempts=unit.interruptions,
                error=message,
            )
            message = (
                f"quarantined after {unit.interruptions} interrupted "
                f"attempts: {message}"
            )
        self.events.emit(
            "failed", unit=unit.describe(), job=unit.job.job_id, error=message
        )
        unit.job.publish(
            self._event(unit, "failed", error=message, quarantined=quarantined)
        )
        self._maybe_finish(unit.job)

    def _maybe_finish(self, job: Job) -> None:
        if not job.claim_done():
            return
        failed = len(job.failures)
        self.events.emit(
            "job_failed" if failed else "job_completed",
            job=job.job_id,
            completed=len(job.results),
            failed=failed,
        )
        job.publish(
            {
                "type": "done",
                "job": job.job_id,
                "completed": len(job.results),
                "failed": failed,
                "elapsed": round(time.monotonic() - job.submitted_mono, 3),
            }
        )
        with self._cond:
            self._finished.append(job.job_id)
            while len(self._finished) > FINISHED_JOB_WINDOW:
                del self.jobs[self._finished.popleft()]

    # -- the process pool ----------------------------------------------------
    def _respawned(self, generation: int) -> None:
        """Executor hook: a broken pool was torn down (once per
        generation; the next dispatch spawns a fresh one)."""
        self.events.emit(
            "broken_pool",
            generation=generation,
            heartbeat_lags={
                str(pid): age for pid, age in self.heartbeat_lags().items()
            },
        )
