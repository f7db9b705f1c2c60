"""OpenMetrics exposition: Counter/Gauge/Histogram over the stats layer.

The repo already counts everything — :class:`~repro.sim.stats.StatsRegistry`
groups inside a simulation, :class:`~repro.service.scheduler.ServiceStats`
and :class:`~repro.service.admission.AdmissionStats` around it — but those
counters only surfaced as ad-hoc JSON (``/stats``) or batch-at-end
snapshots.  This module is the bridge to the one format every scraper,
alerting rule and dashboard already speaks: the OpenMetrics / Prometheus
text exposition.

Three metric families, deliberately small:

- :class:`Counter` — monotonically increasing totals (``_total`` sample
  suffix, per the OpenMetrics counter contract);
- :class:`Gauge` — instantaneous readings (queue depth, heartbeat lag);
- :class:`Histogram` — cumulative ``le`` buckets + ``_sum``/``_count``
  (queue-age distribution, unit latency).

All three support label sets (``{scheme="disco"}``), and a
:class:`MetricsRegistry` renders the whole family list as one exposition
ending in the mandatory ``# EOF`` terminator.  Rendering walks an
immutable snapshot of each family's samples, so a scrape racing a
writer sees a consistent (never torn) exposition.

Bridging is one-way and pull-based: :func:`snapshot_families` maps a
:class:`~repro.sim.stats.CounterSnapshot` (every registry group) onto
``repro_<group>_<counter>_total`` counters at scrape time — nothing in
the simulator ever writes a metric object, so the plane is provably
inert when nobody scrapes.

``python -m repro.telemetry.metrics --dump`` renders the exposition for
an offline run (a quick simulation resolved through the normal
memo/disk caches), so the same metric names can be grepped from a batch
run without standing the service up.

:func:`validate_openmetrics` is the syntax checker CI runs over scraped
expositions (``python -m repro.telemetry.check --metrics file``): name
charset, TYPE/HELP placement, label syntax, float-parseable values,
histogram bucket monotonicity, the single trailing ``# EOF``.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.sim.stats import CounterSnapshot

#: Every exposed metric name starts with this, so one scrape config
#: (``{__name__=~"repro_.*"}``) covers the whole plane.
PREFIX = "repro"

#: The exposition content type (headers the service endpoint sends).
CONTENT_TYPE = "application/openmetrics-text; version=1.0.0; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default queue-age histogram buckets (milliseconds): sub-ms dispatch
#: through the 60s retry-after cap.
QUEUE_AGE_BUCKETS_MS = (1.0, 5.0, 25.0, 100.0, 500.0, 2_000.0, 10_000.0, 60_000.0)


def _sanitize(token: str) -> str:
    """Fold an arbitrary counter/group name into the metric charset."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", token)
    if not cleaned or not re.match(r"[a-zA-Z_]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value: integral floats print as integers so the
    exposition is stable across int/float counter providers."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label_value(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


class _Family:
    """Shared plumbing: name/help checks and the labelled-sample store."""

    kind = "untyped"

    def __init__(self, name: str, help: str):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._samples: Dict[Tuple[Tuple[str, str], ...], float] = {}

    @staticmethod
    def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
        for label in labels:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        return tuple(sorted((k, str(v)) for k, v in labels.items()))

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        """A consistent point-in-time copy of every labelled sample."""
        with self._lock:
            return [(dict(key), value) for key, value in self._samples.items()]

    def render(self) -> Iterable[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Family):
    """A monotonically increasing total (exposed as ``<name>_total``)."""

    kind = "counter"

    def set_total(self, value: float, **labels: str) -> None:
        """Pin the total outright — the bridge path, where the source of
        truth is an external monotonic counter being mirrored."""
        key = self._label_key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def render(self):
        yield f"# TYPE {self.name} counter"
        if self.help:
            yield f"# HELP {self.name} {self.help}"
        for labels, value in sorted(
            self.samples(), key=lambda item: sorted(item[0].items())
        ):
            yield (
                f"{self.name}_total{_render_labels(labels)} "
                f"{_format_value(value)}"
            )


class Gauge(_Family):
    """An instantaneous reading that can go either way."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        key = self._label_key(labels)
        with self._lock:
            self._samples[key] = float(value)

    def render(self):
        yield f"# TYPE {self.name} gauge"
        if self.help:
            yield f"# HELP {self.name} {self.help}"
        for labels, value in sorted(
            self.samples(), key=lambda item: sorted(item[0].items())
        ):
            yield f"{self.name}{_render_labels(labels)} {_format_value(value)}"


class Histogram:
    """Cumulative-bucket histogram (``le`` buckets + ``_sum``/``_count``).

    Bucket upper bounds are fixed at construction; every observation
    lands in all buckets whose bound is >= the value (cumulative, as the
    exposition format requires) plus the implicit ``+Inf`` bucket.
    Unlabelled only — the queue-age and latency uses need no label axis,
    and dropping labels keeps rendering trivially torn-free.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str, buckets: Sequence[float]):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.buckets) + 1)  # +Inf last
        self._sum = 0.0

    def observe(self, value: float) -> None:
        with self._lock:
            self._sum += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self._counts[index] += 1
            self._counts[-1] += 1

    def snapshot(self) -> Tuple[List[int], float]:
        with self._lock:
            return list(self._counts), self._sum

    def render(self):
        counts, total = self.snapshot()
        yield f"# TYPE {self.name} histogram"
        if self.help:
            yield f"# HELP {self.name} {self.help}"
        for index, bound in enumerate(self.buckets):
            yield (
                f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                f"{counts[index]}"
            )
        yield f'{self.name}_bucket{{le="+Inf"}} {counts[-1]}'
        yield f"{self.name}_sum {_format_value(total)}"
        yield f"{self.name}_count {counts[-1]}"


class MetricsRegistry:
    """An ordered family list rendered as one OpenMetrics exposition."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, object] = {}

    def add(self, family):
        """Register a family (fresh, or long-lived like an emitter's)."""
        with self._lock:
            if family.name in self._families:
                raise ValueError(f"metric {family.name!r} already registered")
            self._families[family.name] = family
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self.add(Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.add(Gauge(name, help))

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = (1.0,)
    ) -> Histogram:
        return self.add(Histogram(name, help, buckets))

    def get(self, name: str):
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[object]:
        with self._lock:
            return list(self._families.values())

    def render(self) -> str:
        """The full exposition, ``# EOF``-terminated.

        Families are rendered from per-family snapshots, so a scrape
        concurrent with writers yields a syntactically complete document
        whose counters are each at-or-after their last scraped value —
        the monotonicity the concurrent-scrape test pins.
        """
        lines: List[str] = []
        for family in self.families():
            lines.extend(family.render())
        lines.append("# EOF")
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# bridging the existing stats layer
# --------------------------------------------------------------------------


def snapshot_families(
    snapshot: CounterSnapshot, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Mirror every registry group onto ``<prefix>_<group>_<counter>``
    counters.

    The :class:`~repro.sim.stats.StatsRegistry` convention is that every
    group counter is monotonic over a run, so the bridge exposes them as
    OpenMetrics counters; scrape-to-scrape monotonicity then follows
    from the substrate counters themselves.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for group in snapshot:
        for key, value in snapshot[group].items():
            name = f"{PREFIX}_{_sanitize(group)}_{_sanitize(key)}"
            family = registry.get(name)
            if family is None:
                family = registry.counter(
                    name, f"registry counter {key!r} of group {group!r}"
                )
            family.set_total(float(value))
    return registry


def build_service_registry(service) -> MetricsRegistry:
    """One scrape's view of a :class:`~repro.service.scheduler.CampaignService`.

    Counters come from the service's own :class:`StatsRegistry` snapshot
    (the same numbers ``/stats`` serves, so the two endpoints reconcile
    by construction); the rates, the per-scheme counts and the cumulative
    queue-age histogram come from its one
    :class:`~repro.telemetry.events.Emitter`.
    """
    registry = MetricsRegistry()
    snapshot_families(service.snapshot(), registry)

    depth = registry.gauge(
        "repro_service_queue_depth_units",
        "queued + delayed + in-flight work units",
    )
    depth.set(service.queue_depth())
    up = registry.gauge(
        "repro_service_up", "1 while the dispatcher threads are alive"
    )
    up.set(1.0 if service.live() else 0.0)
    accepting = registry.gauge(
        "repro_service_accepting", "1 while submissions are admitted"
    )
    accepting.set(1.0 if service.accepting else 0.0)
    if service.started_mono is not None:
        uptime = registry.gauge(
            "repro_service_uptime_seconds", "seconds since service start"
        )
        uptime.set(time.monotonic() - service.started_mono)

    events = service.events
    rates = registry.gauge(
        "repro_service_rate_per_second",
        "trailing 60s wall-clock rates from the service events",
    )
    for kind in ("completed", "failed", "shed", "retry", "admitted"):
        rates.set(events.rate(kind, 60.0), kind=kind)

    by_scheme = registry.counter(
        "repro_service_units_completed_by_scheme",
        "completed spec units, labelled by compression scheme",
    )
    for scheme, count in sorted(events.labelled("completed").items()):
        by_scheme.set_total(float(count), scheme=scheme)

    cache = registry.counter(
        "repro_service_unit_cache_outcomes",
        "completed units by cache outcome (hit = no pool trip)",
    )
    stats = service.stats
    cache.set_total(float(stats.cache_hits), outcome="hit")
    cache.set_total(
        float(max(0, stats.units_completed - stats.cache_hits)),
        outcome="miss",
    )

    for histogram in events.histograms.values():
        registry.add(histogram)

    lag = registry.gauge(
        "repro_worker_heartbeat_lag_seconds",
        "seconds since each running worker's heartbeat file was written",
    )
    for pid, age in service.heartbeat_lags().items():
        lag.set(age, pid=str(pid))

    burn = registry.gauge(
        "repro_slo_burn_rate",
        "error-budget burn rate per SLO (>1 means the objective is burning)",
    )
    ok = registry.gauge(
        "repro_slo_ok", "1 while the SLO meets its objective"
    )
    for status in service.evaluate_slos(publish=False):
        burn.set(status.burn_rate, slo=status.name)
        ok.set(1.0 if status.ok else 0.0, slo=status.name)
    return registry


# --------------------------------------------------------------------------
# the OpenMetrics syntax checker
# --------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^{}]*\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(\s+(?P<timestamp>[^\s]+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def validate_openmetrics(text: str) -> List[str]:
    """Return the list of syntax violations (empty == valid).

    Checks the subset the renderer emits — which is also the subset any
    Prometheus-compatible scraper requires: metric-name charset, ``#
    TYPE``/``# HELP`` shape, label syntax, float-parseable values,
    per-family sample-name consistency (``_total`` for counters, bucket
    suffixes for histograms), cumulative-bucket monotonicity, and
    exactly one terminating ``# EOF`` as the final line.
    """
    errors: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if not lines:
        return ["empty exposition"]
    if lines[-1] != "# EOF":
        errors.append("missing '# EOF' terminator as the final line")
    types: Dict[str, str] = {}
    bucket_state: Dict[str, float] = {}
    seen_samples: set = set()
    for number, line in enumerate(lines, start=1):
        if line == "# EOF":
            if number != len(lines):
                errors.append(f"line {number}: '# EOF' before the final line")
            continue
        if not line:
            errors.append(f"line {number}: blank line inside the exposition")
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[1] not in ("TYPE", "HELP", "UNIT"):
                errors.append(f"line {number}: malformed comment {line!r}")
                continue
            name = parts[2]
            if not _NAME_RE.match(name):
                errors.append(
                    f"line {number}: invalid metric name {name!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "info",
                    "stateset", "unknown",
                ):
                    errors.append(
                        f"line {number}: invalid TYPE declaration {line!r}"
                    )
                elif name in types:
                    errors.append(
                        f"line {number}: duplicate TYPE for {name!r}"
                    )
                else:
                    types[name] = parts[3]
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            errors.append(f"line {number}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        labels_raw = match.group("labels") or ""
        labels: Dict[str, str] = {}
        if labels_raw:
            body = labels_raw[1:-1]
            consumed = _LABEL_PAIR_RE.findall(body)
            rebuilt = ",".join(f'{k}="{v}"' for k, v in consumed)
            if body and rebuilt != body:
                errors.append(
                    f"line {number}: malformed label set {labels_raw!r}"
                )
            labels = dict(consumed)
        try:
            value = float(match.group("value"))
        except ValueError:
            errors.append(
                f"line {number}: value {match.group('value')!r} "
                "is not a number"
            )
            continue
        family, kind = _family_of(name, types)
        if kind == "counter":
            if not name.endswith("_total") and not name.endswith(
                ("_created",)
            ):
                errors.append(
                    f"line {number}: counter sample {name!r} must use the "
                    "'_total' suffix"
                )
            if value < 0:
                errors.append(
                    f"line {number}: counter {name!r} is negative"
                )
        if kind == "histogram" and name.endswith("_bucket"):
            le = labels.get("le")
            if le is None:
                errors.append(
                    f"line {number}: histogram bucket without an 'le' label"
                )
            else:
                previous = bucket_state.get(family)
                if previous is not None and value < previous:
                    errors.append(
                        f"line {number}: bucket counts of {family!r} are "
                        "not cumulative"
                    )
                bucket_state[family] = value
        sample_id = (name, tuple(sorted(labels.items())))
        if sample_id in seen_samples:
            errors.append(
                f"line {number}: duplicate sample {name}{labels_raw}"
            )
        seen_samples.add(sample_id)
    return errors


def _family_of(sample_name: str, types: Dict[str, str]) -> Tuple[str, str]:
    """Resolve a sample name to its declared family + kind."""
    for suffix in ("_total", "_bucket", "_sum", "_count", "_created"):
        if sample_name.endswith(suffix):
            family = sample_name[: -len(suffix)]
            if family in types:
                return family, types[family]
    return sample_name, types.get(sample_name, "unknown")


def parse_samples(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Fold an exposition into ``{sample_name: {label_key: value}}`` —
    the comparison view the reconciliation tests use."""
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.split("\n"):
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            continue
        labels = tuple(
            sorted(_LABEL_PAIR_RE.findall(match.group("labels") or ""))
        )
        try:
            value = float(match.group("value"))
        except ValueError:
            continue  # the validator reports these; the fold stays lenient
        out.setdefault(match.group("name"), {})[labels] = value
    return out


# --------------------------------------------------------------------------
# offline dump (python -m repro.telemetry.metrics --dump)
# --------------------------------------------------------------------------


def dump_offline(
    scheme: str = "disco",
    workload: str = "x264",
    accesses: int = 100,
    seed: int = 7,
) -> str:
    """Run (or recall) one quick spec and render its registry snapshots
    as the same exposition the service serves — batch runs and the
    service expose one metric namespace."""
    from repro.experiments.runner import RunSpec, run_spec

    spec = RunSpec(
        scheme=scheme,
        workload=workload,
        accesses_per_core=accesses,
        seed=seed,
    )
    result = run_spec(spec)
    registry = MetricsRegistry()
    snapshot_families(result.snapshot_full, registry)
    meta = registry.gauge(
        "repro_run_cycles", "simulated cycles of the dumped run"
    )
    meta.set(float(result.cycles))
    latency = registry.gauge(
        "repro_run_avg_miss_latency_cycles",
        "the paper's average on-chip miss latency metric",
    )
    latency.set(result.avg_miss_latency)
    return registry.render()


def main(argv: Optional[Sequence[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.metrics",
        description="OpenMetrics exposition for offline runs.",
    )
    parser.add_argument(
        "--dump", action="store_true",
        help="run/recall one quick spec and print its exposition",
    )
    parser.add_argument("--scheme", default="disco")
    parser.add_argument("--workload", default="x264")
    parser.add_argument("--accesses", type=int, default=100)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if not args.dump:
        parser.error("nothing to do (pass --dump)")
    text = dump_offline(
        scheme=args.scheme,
        workload=args.workload,
        accesses=args.accesses,
        seed=args.seed,
    )
    errors = validate_openmetrics(text)
    if errors:  # pragma: no cover - renderer and validator co-evolve
        for error in errors:
            print(f"metrics: {error}", file=__import__("sys").stderr)
        return 1
    print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI smoke job
    import sys

    sys.exit(main(sys.argv[1:]))
