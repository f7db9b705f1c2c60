"""repro.telemetry — the zero-cost-when-off observability layer.

Eight parts, all defaulting off and digest-invariant when on; import
each from its submodule:

- :mod:`repro.telemetry.sampler` — windowed time-series snapshots of the
  stats registry (:class:`~repro.telemetry.sampler.TimeSeriesSampler`);
- :mod:`repro.telemetry.tracer` — sampled per-packet lifecycle events
  recorded at fault-hook-style sites in the NoC;
- :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto),
  JSONL, report-table summaries and quantile math;
- :mod:`repro.telemetry.profiler` — per-component wall-clock attribution
  of the simulator itself;
- :mod:`repro.telemetry.metrics` — OpenMetrics/Prometheus text
  exposition over the stats layer (``GET /metrics`` and the offline
  ``--dump``), with its own syntax validator;
- :mod:`repro.telemetry.events` — the one emit path: the ``KINDS`` table
  declares each service, runner and watchdog occurrence's sinks, and
  the service's ``Emitter`` holds its counters, windowed rates and
  queue-age samples;
- :mod:`repro.telemetry.slo` — declarative objectives with burn rates,
  evaluated over that emitter;
- :mod:`repro.telemetry.flight` — the crash flight recorder (bounded
  event ring dumped atomically next to the heartbeat files; enabled by
  ``REPRO_FLIGHT_DIR``).

:mod:`repro.telemetry.log` carries the structured logger and the
correlation-id context that joins service, runner, journal and flight
records on one token; :mod:`repro.telemetry.check` validates exported
traces and scraped expositions (CI smoke entry points).
"""
