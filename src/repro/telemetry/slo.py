"""Declarative SLOs evaluated over the service's emitter.

An :class:`SLOSpec` states an objective over an occurrence kind or a
sampled field of the service's :class:`~repro.telemetry.events.Emitter`
— "p95 queue age under 30 seconds", "shed rate under 0.5/s",
"completion throughput at least 0.02 units/s while work is admitted" —
and :func:`evaluate` turns the emitter's trailing window into an
:class:`SLOStatus` with an explicit **burn rate**: how many times over
(or under) the objective the fleet is running.  ``burn_rate <= 1``
means the objective holds; ``2.0`` means the error budget is burning at
twice the sustainable pace.

Three objective kinds cover the service's signals:

``quantile_max``
    The ``quantile`` (default p95) of a sampled field's values in the
    window must not exceed ``objective`` (unit-latency style objectives).
``rate_max``
    The windowed occurrence rate (events/second) must not exceed
    ``objective`` (shed/failure style objectives).
``rate_min``
    The windowed rate must be at least ``objective`` (throughput).  A
    throughput objective over an *idle* service would burn forever, so
    ``demand_metric`` names the companion kind (e.g. ``admitted``) that
    must have fired in the window for the objective to apply.

Windows are at most :data:`~repro.telemetry.events.HORIZON_S` seconds,
the span the emitter retains.  :func:`default_slos` pins the repo's
out-of-the-box set.  Evaluation is read-only — the observability plane
never feeds back into scheduling or simulation.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

from repro.telemetry.events import HORIZON_S, Emitter
from repro.telemetry.export import percentile

_KINDS = ("quantile_max", "rate_max", "rate_min")


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective over an emitter kind or sampled field."""

    name: str
    metric: str
    objective: float
    kind: str = "quantile_max"
    window: float = 60.0
    quantile: float = 0.95
    #: For ``rate_min``: the objective only applies when this companion
    #: metric fired inside the window (idle fleets are not "burning").
    demand_metric: Optional[str] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown SLO kind {self.kind!r} (expected one of {_KINDS})"
            )
        if self.objective <= 0:
            raise ValueError("SLO objectives must be positive")
        if not 0 < self.window <= HORIZON_S:
            raise ValueError(f"SLO windows must be in (0, {HORIZON_S}] s")


@dataclass(frozen=True)
class SLOStatus:
    """One evaluation: the measured value, the burn rate, the verdict."""

    name: str
    metric: str
    kind: str
    objective: float
    value: Optional[float]
    burn_rate: float
    ok: bool
    window: float

    def to_dict(self) -> Dict:
        return {**asdict(self), "burn_rate": round(self.burn_rate, 4)}


def evaluate(
    slo: SLOSpec,
    events: Emitter,
    elapsed: Optional[float] = None,
) -> SLOStatus:
    """Evaluate one objective over the emitter's trailing window.

    ``elapsed`` is how long the emitter has been collecting (service
    uptime).  An emitter younger than a ``rate_min`` objective's window
    under-reports the rate — the divisor is the full window — so the
    objective is held in abeyance (burn 0) until a whole window has
    elapsed; ``rate_max`` keeps the biased-low estimate, which can only
    under-alarm, never false-alarm.
    """
    value: Optional[float] = None
    burn = 0.0
    if slo.kind == "quantile_max":
        samples = events.samples(slo.metric, slo.window)
        if samples:
            value = percentile(samples, slo.quantile)
            burn = value / slo.objective
    elif slo.kind == "rate_max":
        value = events.rate(slo.metric, slo.window)
        burn = value / slo.objective
    else:  # rate_min
        demanded = True
        if slo.demand_metric is not None:
            demanded = events.count(slo.demand_metric, slo.window) > 0
        if elapsed is not None and elapsed < slo.window:
            demanded = False
        value = events.rate(slo.metric, slo.window)
        if demanded:
            # Guard the div: a zero rate against a positive floor burns
            # "infinitely" — cap at a large finite burn so JSON stays
            # portable and dashboards stay plottable.
            burn = min(slo.objective / value, 1000.0) if value > 0 else 1000.0
        else:
            burn = 0.0
    return SLOStatus(
        name=slo.name,
        metric=slo.metric,
        kind=slo.kind,
        objective=slo.objective,
        value=value,
        burn_rate=burn,
        ok=burn <= 1.0,
        window=slo.window,
    )


def default_slos() -> List[SLOSpec]:
    """The out-of-the-box service objectives.

    Numbers are deliberately loose — they catch a service that is
    drowning (minute-old queue entries, sustained shedding, admitted
    work going nowhere), not one that is merely busy.
    """
    return [
        SLOSpec(
            name="queue_age_p95",
            metric="queue_age_ms",
            objective=30_000.0,
            kind="quantile_max",
            quantile=0.95,
            window=60.0,
        ),
        SLOSpec(
            name="shed_rate",
            metric="shed",
            objective=0.5,
            kind="rate_max",
            window=60.0,
        ),
        SLOSpec(
            name="throughput",
            metric="completed",
            objective=0.02,
            kind="rate_min",
            window=120.0,
            demand_metric="admitted",
        ),
    ]
