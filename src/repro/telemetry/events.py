"""One emit path: every occurrence's sinks declared once, in :data:`KINDS`.

An *occurrence* — a job admitted or shed, a unit dispatched, retried,
completed, failed or quarantined, a pool broken, a worker killed, a
checkpoint quarantined — may reach several sinks: a
:class:`~repro.service.scheduler.ServiceStats` counter, the windowed
rates behind ``drain_rate`` and the SLOs, the queue-age samples and
histogram, the flight recorder and the log.  Each :class:`Kind` in
:data:`KINDS` declares which, once; call sites only name the kind and
its fields.

:func:`emit` writes the per-process sinks (log line, flight event and
dump) and is all a pool worker or the watchdog needs.  The service's
:class:`Emitter` adds the counters, windows, samples and labels under
one lock.  ``/stats``, ``/metrics``, ``drain_rate`` and SLO evaluation
all read that one emitter, so they agree by construction.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import Counter, deque, defaultdict
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.telemetry import flight
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import QUEUE_AGE_BUCKETS_MS, Histogram

#: The longest trailing window any rate may read, in seconds (the
#: throughput SLO's); the per-second buckets span exactly this much.
HORIZON_S = 120

#: Sampled values retained per field for windowed quantiles and means.
SAMPLE_CAPACITY = 4096

#: Sampled fields: help text and buckets of the cumulative histogram
#: each one feeds (exposed as ``repro_service_<field>``).
SAMPLED: Dict[str, Tuple[str, Tuple[float, ...]]] = {
    "queue_age_ms": (
        "unit queue age at dispatch (milliseconds)",
        QUEUE_AGE_BUCKETS_MS,
    ),
}


@dataclass(frozen=True)
class Kind:
    """The sinks one kind of occurrence reaches."""

    #: ``ServiceStats`` fields to bump, each by one (``None``) or by the
    #: value of the named field.
    counters: Mapping[str, Optional[str]] = field(default_factory=dict)
    #: Counted per second, for :meth:`Emitter.rate` over any trailing
    #: window up to :data:`HORIZON_S`.
    windowed: bool = False
    #: A :data:`SAMPLED` field whose value joins the sample ring and the
    #: cumulative histogram.
    sample: Optional[str] = None
    #: A field whose value labels a cumulative count (scheme).
    label: Optional[str] = None
    #: Dump the flight ring, with the kind as the reason.
    dump: bool = False
    #: The log line: a ``%(field)s`` template, formatted only when
    #: ``level`` is enabled for ``logger``.
    level: int = logging.INFO
    message: Optional[str] = None
    logger: str = "repro.service"


_FINISHED = "job %(job)s finished: %(completed)d completed, %(failed)d failed"

KINDS: Dict[str, Kind] = {
    # -- the service: admission -------------------------------------------
    "admitted": Kind(
        windowed=True,
        message="admitted job %(job)s: client=%(client)s "
        "priority=%(priority)d units=%(units)d corr=%(corr)s",
    ),
    "shed": Kind(
        windowed=True,
        level=logging.WARNING,
        message="shed %(units)d units from client %(client)s: %(reason)s "
        "(retry_after %(retry_after).2fs)",
    ),
    # -- the service: dispatch and resolution -----------------------------
    "dispatch": Kind(
        counters={
            "queue_age_ms_total": "queue_age_ms",
            "queue_age_samples": None,
        },
        sample="queue_age_ms",
    ),
    "completed": Kind(
        counters={"units_completed": None, "cache_hits": "cached"},
        windowed=True,
        label="scheme",
    ),
    "retry": Kind(
        counters={"retries": None},
        windowed=True,
        message="retrying %(unit)s in %(delay).2fs (attempt %(attempt)d): "
        "%(error)s",
    ),
    "failed": Kind(counters={"units_failed": None}, windowed=True),
    "quarantine": Kind(
        counters={"units_quarantined": None},
        dump=True,
        level=logging.WARNING,
        message="quarantined %(unit)s after %(attempts)d interruptions",
    ),
    "job_completed": Kind(counters={"jobs_completed": None}, message=_FINISHED),
    "job_failed": Kind(counters={"jobs_failed": None}, message=_FINISHED),
    "broken_pool": Kind(
        counters={"worker_respawns": None},
        windowed=True,
        dump=True,
        level=logging.WARNING,
        message="process pool died; respawned (generation %(generation)d)",
    ),
    "slo_burn": Kind(
        windowed=True,
        level=logging.WARNING,
        message="SLO %(name)s burning: %(metric)s=%(value).4g vs objective "
        "%(objective).4g (burn %(burn_rate).2fx)",
    ),
    "slo_recovered": Kind(message="SLO %(name)s recovered"),
    # -- pool workers and the watchdog ------------------------------------
    "inflight": Kind(dump=True),
    "invariant_violation": Kind(dump=True),
    "exception": Kind(dump=True),
    "envelope_quarantine": Kind(dump=True),
    "watchdog_kill": Kind(
        dump=True,
        level=logging.WARNING,
        message="watchdog: worker %(victim_pid)d stalled at cycle %(cycle)d "
        "for %(stalled_seconds).1fs; killing",
        logger="repro.runner",
    ),
}


def emit(kind: str, **fields) -> None:
    """Record one occurrence in this process's log and flight recorder
    (the event, and the dump when the kind declares one).

    A ``corr`` field names the correlation id explicitly (the watchdog
    reads its victim's from the heartbeat); otherwise the bound
    :func:`~repro.telemetry.log.correlation_scope` supplies it.
    """
    spec = KINDS[kind]
    # Take the recorder before logging so its log tee holds this line.
    recorder = flight.recorder() if flight.enabled() else None
    if spec.message is not None:
        get_logger(spec.logger).log(spec.level, spec.message, fields)
    if recorder is None:
        return
    recorder.record(kind, **fields)
    if spec.dump:
        extra = {key: value for key, value in fields.items() if key != "corr"}
        recorder.dump(kind, corr=fields.get("corr"), extra=extra)


class Emitter:
    """The service's emitter: counters, windowed rates, samples, labels.

    Storage is bounded by time, not by event count: per-second counts of
    every windowed kind across :data:`HORIZON_S`, and a ring of the last
    :data:`SAMPLE_CAPACITY` values per sampled field.  The histograms
    and labelled counts are cumulative, like the ``stats`` counters.
    ``clock`` (wall-clock seconds) is injectable for tests.
    """

    def __init__(self, stats=None, clock: Callable[[], float] = time.time):
        self.stats = stats
        self._clock = clock
        self._lock = threading.Lock()
        #: Slot ``second % len`` holds ``(second, Counter of kinds)``.
        self._slots: List[Optional[Tuple[int, Counter]]] = [None] * (
            HORIZON_S + 2
        )
        self._samples: Dict[str, Deque[Tuple[float, float]]] = {
            name: deque(maxlen=SAMPLE_CAPACITY) for name in SAMPLED
        }
        self._labelled: Dict[str, Counter] = defaultdict(Counter)
        self.histograms: Dict[str, Histogram] = {
            name: Histogram(f"repro_service_{name}", help, buckets)
            for name, (help, buckets) in SAMPLED.items()
        }

    def emit(self, kind: str, **fields) -> None:
        """Write every sink ``KINDS[kind]`` declares."""
        spec = KINDS[kind]
        now = self._clock()
        with self._lock:
            if self.stats is not None:
                for name, by in spec.counters.items():
                    step = 1 if by is None else int(fields[by])
                    setattr(self.stats, name, getattr(self.stats, name) + step)
            if spec.windowed:
                second = int(now)
                index = second % len(self._slots)
                slot = self._slots[index]
                if slot is None or slot[0] != second:
                    slot = self._slots[index] = (second, Counter())
                slot[1][kind] += 1
            if spec.sample is not None:
                value = fields[spec.sample]
                self._samples[spec.sample].append((now, value))
                self.histograms[spec.sample].observe(value)
            if spec.label is not None and fields[spec.label] is not None:
                self._labelled[kind][str(fields[spec.label])] += 1
        emit(kind, **fields)  # the per-process sinks: log and flight

    # -- reads ---------------------------------------------------------------
    def count(self, kind: str, seconds: float) -> float:
        """Occurrences of ``kind`` in the trailing ``seconds``.

        The oldest second is only partly inside the window; it counts
        pro rata, so a steady rate reads true at per-second resolution.
        """
        if not 0 < seconds <= HORIZON_S:
            raise ValueError(f"window must be in (0, {HORIZON_S}] seconds")
        now = self._clock()
        start = now - seconds
        first = math.floor(start)
        total = 0.0
        with self._lock:
            for slot in self._slots:
                if slot is None or not first <= slot[0] <= now:
                    continue
                hits = slot[1][kind]
                total += hits * (first + 1 - start) if slot[0] == first else hits
        return total

    def rate(self, kind: str, seconds: float = 60.0) -> float:
        """Occurrences of ``kind`` per second over the trailing window."""
        return self.count(kind, seconds) / seconds

    def samples(self, name: str, seconds: float) -> List[float]:
        """Values of sampled field ``name`` in the trailing window."""
        horizon = self._clock() - seconds
        with self._lock:
            ring = self._samples.get(name, ())  # an unsampled name: none
            return [value for ts, value in ring if ts >= horizon]

    def mean(self, name: str, seconds: float = 60.0) -> float:
        """Mean of sampled field ``name`` over the window (0.0 when empty)."""
        values = self.samples(name, seconds)
        return sum(values) / len(values) if values else 0.0

    def labelled(self, kind: str) -> Dict[str, int]:
        """Cumulative occurrences of ``kind`` per label value."""
        with self._lock:
            return dict(self._labelled[kind])

    def series(self) -> List[Dict[str, int]]:
        """Per-second counts (``ts``: the second), oldest first."""
        now = int(self._clock())
        with self._lock:
            return [
                {"ts": second, **counts}
                for second, counts in sorted(filter(None, self._slots))
                if now - HORIZON_S <= second <= now
            ]
