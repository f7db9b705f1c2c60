"""Admission control: per-client rate limits + queue-depth backpressure.

The service's overload contract is *shed-and-retry, never
hang-and-corrupt*: every submission is answered in O(1) — either
admitted, or refused with a structured :class:`Overloaded` carrying a
``retry_after`` hint — and nothing ever queues unboundedly.  Two
independent gates:

- **Token bucket per client** (``rate`` units/second refill, ``burst``
  capacity): a client is charged one token per work unit (spec or
  campaign) it submits, so a thousand-spec sweep draws down the same
  allowance as a thousand one-spec submissions.  An empty bucket sheds
  with ``retry_after`` = the exact refill time for the refused units
  (capped), so a well-behaved client that sleeps the hint succeeds on
  its next attempt.
- **Global queue depth**: when the scheduler's backlog plus the new
  units would exceed ``max_queue_depth``, the submission is shed with a
  drain-time estimate (`overflow / recent throughput`) as the hint —
  backpressure proportional to how far past saturation the service is.

All decisions are counted into :class:`AdmissionStats` (a
``StatsRegistry`` provider group) and both gates are deterministic given
an injected clock, so the tests pin exact boundary behaviour.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Optional


@dataclass(frozen=True)
class Overloaded:
    """A structured load-shed response (the 429 payload).

    ``retry_after`` is seconds; ``reason`` is one of ``rate_limited``,
    ``queue_full`` or ``too_large`` (a single submission bigger than the
    whole queue bound can never be admitted — retrying is futile and the
    reason says so).
    """

    reason: str
    retry_after: float
    client: str = ""
    detail: str = ""

    def to_dict(self) -> Dict:
        return {
            "error": "overloaded",
            "reason": self.reason,
            "retry_after": round(self.retry_after, 3),
            "client": self.client,
            "detail": self.detail,
        }


@dataclass
class AdmissionStats:
    """Admission-decision counters (the ``admission`` stat group)."""

    #: Jobs admitted into the scheduler.
    jobs_admitted: int = 0
    #: Jobs refused with a structured :class:`Overloaded`.
    jobs_shed: int = 0
    #: Work units (specs/campaigns) inside admitted jobs.
    units_admitted: int = 0
    #: Units inside shed jobs (the load that was turned away).
    units_shed: int = 0
    #: Sheds by gate.
    shed_rate_limited: int = 0
    shed_queue_full: int = 0
    shed_too_large: int = 0

    def counters(self) -> Dict[str, int]:
        """Registry-provider view of the group (every field, in order)."""
        return asdict(self)


class TokenBucket:
    """The classic leaky counter: ``burst`` capacity, ``rate``/s refill.

    Not thread-safe on its own — the :class:`AdmissionController` holds
    one lock around every decision, which also keeps the multi-field
    admit-or-shed decision atomic.
    """

    def __init__(
        self,
        rate: float,
        burst: float,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(
            self.burst, self._tokens + (now - self._stamp) * self.rate
        )
        self._stamp = now

    def take(self, tokens: float = 1.0) -> bool:
        """Spend ``tokens`` if available; False (and no spend) otherwise."""
        self._refill()
        if tokens > self._tokens:
            return False
        self._tokens -= tokens
        return True

    def refill_delay(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` would be available (0 when they are)."""
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate

    @property
    def tokens(self) -> float:
        self._refill()
        return self._tokens


class AdmissionController:
    """Admit-or-shed decisions for the campaign scheduler."""

    #: retry_after hints are capped: past this, the hint stops carrying
    #: information ("come back much later") and a huge value would make
    #: polite clients give up entirely.
    MAX_RETRY_AFTER = 60.0

    def __init__(
        self,
        rate: float = 8.0,
        burst: float = 32.0,
        max_queue_depth: int = 256,
        clock: Callable[[], float] = time.monotonic,
        stats: Optional[AdmissionStats] = None,
    ):
        if max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive")
        self.rate = rate
        self.burst = burst
        self.max_queue_depth = max_queue_depth
        self.stats = stats if stats is not None else AdmissionStats()
        self._clock = clock
        self._buckets: Dict[str, TokenBucket] = {}

    def bucket(self, client: str) -> TokenBucket:
        bucket = self._buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, clock=self._clock)
            self._buckets[client] = bucket
        return bucket

    def shed(
        self, reason: str, retry_after: float, client: str, units: int,
        detail: str,
    ) -> Overloaded:
        """Count one refusal and build its response (the one shed rule)."""
        self.stats.jobs_shed += 1
        self.stats.units_shed += units
        field = f"shed_{reason}"
        setattr(self.stats, field, getattr(self.stats, field) + 1)
        return Overloaded(
            reason=reason,
            retry_after=min(retry_after, self.MAX_RETRY_AFTER),
            client=client,
            detail=detail,
        )

    def admit(
        self,
        client: str,
        units: int,
        queue_depth: int,
        drain_rate: float = 0.0,
    ) -> Optional[Overloaded]:
        """``None`` when the submission may enter the scheduler, else the
        :class:`Overloaded` to send back.

        ``queue_depth`` is the scheduler's current backlog (queued +
        running units); ``drain_rate`` its recent completion throughput
        (units/second), used to size the ``queue_full`` hint — 0 falls
        back to a 1s default.
        """
        if units <= 0:
            raise ValueError("a submission must carry at least one unit")
        if units > self.max_queue_depth:
            return self.shed(
                "too_large",
                self.MAX_RETRY_AFTER,
                client,
                units,
                f"{units} units exceed the whole queue bound "
                f"({self.max_queue_depth}); split the submission",
            )
        if queue_depth + units > self.max_queue_depth:
            overflow = queue_depth + units - self.max_queue_depth
            retry_after = (
                overflow / drain_rate if drain_rate > 0 else 1.0
            )
            return self.shed(
                "queue_full",
                max(0.1, retry_after),
                client,
                units,
                f"queue depth {queue_depth}+{units} over bound "
                f"{self.max_queue_depth}",
            )
        bucket = self.bucket(client)
        if not bucket.take(float(units)):
            return self.shed(
                "rate_limited",
                max(0.05, bucket.refill_delay(float(units))),
                client,
                units,
                f"client {client!r} over its {self.rate}/s allowance",
            )
        self.stats.jobs_admitted += 1
        self.stats.units_admitted += units
        return None
