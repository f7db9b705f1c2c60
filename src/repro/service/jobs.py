"""Service job model: submissions, work units, and result streams.

A **job** is one client submission — a sweep of simulation specs, fault
campaigns, or both — broken into independently schedulable **work
units**.  Units are what the scheduler queues, dispatches, retries and
journals; the job aggregates their outcomes and publishes an ordered
event stream (``result`` / ``failed`` per unit, one terminal ``done``)
that any number of consumers can follow live or replay after the fact —
results stream as specs complete, not batch-at-end.

Unit payloads are parsed defensively at the submission boundary: an
unknown ``RunSpec`` field or a malformed campaign payload is the
*client's* error and is rejected before admission ever charges a token.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from dataclasses import fields as _dc_fields
from typing import Dict, Iterator, List, Optional

from repro.experiments.runner import RunSpec, spec_key

#: Work-unit kinds.
UNIT_SPEC = "spec"
UNIT_CAMPAIGN = "campaign"

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_SPEC_FIELDS = {field.name for field in _dc_fields(RunSpec)}
_UNIT_SEQ = itertools.count()


def spec_from_payload(payload: Dict) -> RunSpec:
    """Build a :class:`RunSpec` from a client dict, rejecting junk.

    Unknown fields raise ``ValueError`` naming them (a typo'd
    ``acesses_per_core`` must not silently run the default-sized spec and
    then cache it under a key the client never meant to address).
    """
    if not isinstance(payload, dict):
        raise ValueError(f"spec payload must be an object, got {payload!r}")
    unknown = sorted(set(payload) - _SPEC_FIELDS)
    if unknown:
        raise ValueError(f"unknown RunSpec fields: {', '.join(unknown)}")
    if "scheme" not in payload or "workload" not in payload:
        raise ValueError("a spec needs at least 'scheme' and 'workload'")
    return RunSpec(**payload)


class WorkUnit:
    """One schedulable unit: a simulation spec or a fault campaign.

    Mutable scheduling state lives here (attempt counters, backoff
    deadline, enqueue stamp); the payload itself is immutable.  The
    executor's retry rule (:meth:`~repro.experiments.runner.Executor.
    decide`) counts *errors* (the unit's own exception — retried once,
    then failed) apart from *interruptions* (a worker died under it —
    retried with backoff until the crash-loop quarantine bound).
    """

    __slots__ = (
        "job",
        "index",
        "kind",
        "spec",
        "payload",
        "key",
        "seq",
        "errors",
        "interruptions",
        "enqueued",
        "ready_at",
    )

    def __init__(self, job: "Job", index: int, kind: str, payload):
        self.job = job
        self.index = index
        self.kind = kind
        self.seq = next(_UNIT_SEQ)
        if kind == UNIT_SPEC:
            self.spec: Optional[RunSpec] = payload
            self.payload = None
            self.key = spec_key(payload)
        elif kind == UNIT_CAMPAIGN:
            self.spec = None
            self.payload = payload
            self.key = f"campaign-{job.job_id}-{index}"
        else:
            raise ValueError(f"unknown unit kind {kind!r}")
        self.errors = 0
        self.interruptions = 0
        self.enqueued = 0.0  # monotonic stamp, set at (re)enqueue
        self.ready_at = 0.0  # backoff deadline; 0 = immediately eligible

    def order_key(self):
        """Heap key: client priority first, then global FIFO order."""
        return (self.job.priority, self.seq)

    def describe(self) -> str:
        if self.spec is not None:
            return (
                f"{self.spec.scheme}/{self.spec.algorithm}:"
                f"{self.spec.workload}(seed {self.spec.seed})"
            )
        return self.key


class Job:
    """One admitted submission and its event stream.

    ``correlation`` is the fleet-wide trace token minted at submission
    (one per job; a deployment's edge proxy may pass its own through).
    It rides every dispatch, journal line, worker log record, kernel
    annotation and flight record the job's units produce, so one grep
    reconstructs the job's full lifecycle across processes.
    """

    def __init__(
        self,
        client: str,
        priority: int,
        units_payload: List,
        job_id: Optional[str] = None,
        correlation: Optional[str] = None,
    ):
        self.job_id = job_id or uuid.uuid4().hex[:12]
        self.correlation = correlation or f"c-{uuid.uuid4().hex[:16]}"
        self.client = client
        self.priority = priority
        self.submitted_ts = time.time()
        self.submitted_mono = time.monotonic()
        self.finished_ts: Optional[float] = None
        self.units: List[WorkUnit] = []
        for index, (kind, payload) in enumerate(units_payload):
            self.units.append(WorkUnit(self, index, kind, payload))
        if not self.units:
            raise ValueError("a job must carry at least one unit")
        self.results: Dict[int, Dict] = {}
        self.failures: Dict[int, Dict] = {}
        self._events: List[Dict] = []
        self._cond = threading.Condition()
        self._started = False
        self._done_claimed = False

    # -- state ---------------------------------------------------------------
    @property
    def total(self) -> int:
        return len(self.units)

    @property
    def state(self) -> str:
        with self._cond:
            if len(self.results) + len(self.failures) >= self.total:
                return FAILED if self.failures else DONE
            return RUNNING if self._started else QUEUED

    def snapshot(self) -> Dict:
        """The ``/status`` view: JSON-able, cheap, lock-consistent."""
        with self._cond:  # re-entrant: ``state`` takes it too
            return {
                "job": self.job_id,
                "correlation": self.correlation,
                "client": self.client,
                "priority": self.priority,
                "state": self.state,
                "units": self.total,
                "completed": len(self.results),
                "failed": len(self.failures),
                "submitted_ts": self.submitted_ts,
                "finished_ts": self.finished_ts,
                "age_seconds": round(
                    time.monotonic() - self.submitted_mono, 3
                ),
            }

    # -- event stream --------------------------------------------------------
    def publish(self, event: Dict) -> None:
        """Append one stream event and wake every follower."""
        with self._cond:
            self._events.append(event)
            if event.get("type") in ("result", "failed"):
                self._started = True
                index = event["index"]
                if event["type"] == "result":
                    self.results[index] = event
                else:
                    self.failures[index] = event
            if event.get("type") == "done":
                self.finished_ts = time.time()
            self._cond.notify_all()

    def mark_started(self) -> None:
        with self._cond:
            self._started = True

    def finished(self) -> bool:
        with self._cond:
            return len(self.results) + len(self.failures) >= self.total

    def claim_done(self) -> bool:
        """True exactly once, when every unit has resolved — the caller
        that wins the claim publishes the terminal ``done`` event (two
        workers resolving the job's last two units race here)."""
        with self._cond:
            if self._done_claimed:
                return False
            if len(self.results) + len(self.failures) < self.total:
                return False
            self._done_claimed = True
            return True

    def stream(
        self, timeout: Optional[float] = None, poll: float = 0.5
    ) -> Iterator[Dict]:
        """Yield events from the beginning, following live until the
        terminal ``done`` event (multiple concurrent consumers and late
        joiners replay the same ordered history).

        ``timeout`` bounds the *total* wait for a terminal event; on
        expiry a synthetic ``{"type": "timeout"}`` is yielded and the
        stream ends — a consumer never hangs on a wedged job.
        """
        index = 0
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            with self._cond:
                while index >= len(self._events):
                    if deadline is not None and time.monotonic() >= deadline:
                        break
                    self._cond.wait(timeout=poll)
                fresh = self._events[index:]
                index += len(fresh)
            for event in fresh:
                yield event
                if event.get("type") == "done":
                    return
            if not fresh and deadline is not None:
                if time.monotonic() >= deadline:
                    yield {"type": "timeout", "job": self.job_id}
                    return
