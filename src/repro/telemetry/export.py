"""Trace exporters: Chrome trace-event JSON (Perfetto), JSONL, summaries.

The :class:`~repro.telemetry.tracer.PacketTracer` records *point* events;
this module pairs them into **spans** and renders three views:

- :func:`to_chrome_trace` — the Chrome trace-event JSON format that
  ``ui.perfetto.dev`` (and ``chrome://tracing``) loads directly.  Three
  synthetic processes: *packets* (one track per traced packet,
  inject→eject span), *routers* (one track per router, a span per hop
  from head-flit arrival to tail-flit departure), *engines* (one track
  per (de)compressor, a span per job).  Simulated cycles are rendered as
  microseconds, so the Perfetto timeline reads directly in cycles.
- :func:`write_jsonl` — one JSON object per raw event, for ad-hoc
  ``jq``/pandas analysis.
- :func:`summarize_trace` — per-node hop counts (heatmap input) and an
  end-to-end latency histogram, consumed by
  :mod:`repro.experiments.report`.

Exporters are pure functions of the recorded event list — they never
touch live simulation objects, so they can run post-mortem on events
that travelled through the disk cache.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.telemetry.tracer import (
    EV_CRC_REJECT,
    EV_DROP,
    EV_DUP,
    EV_EJECT,
    EV_ENGINE,
    EV_HOP,
    EV_INJECT,
    EV_RETX,
    EV_TAIL,
    TraceEvent,
)

# Synthetic Chrome-trace process ids: one per track family.
PID_PACKETS = 1
PID_ROUTERS = 2
PID_ENGINES = 3

#: One simulated cycle rendered as this many trace microseconds, so the
#: Perfetto time axis reads directly in cycles.
US_PER_CYCLE = 1.0


# -- span pairing -------------------------------------------------------------
def packet_spans(events: Sequence[TraceEvent]) -> List[Dict]:
    """Pair inject→eject into one lifecycle span per *delivery*.

    A retransmitted packet re-injects under the same pid; each ejection
    closes the most recent open injection, so the span count equals the
    number of recorded ejections — which at sampling rate 1 is exactly
    ``packets_ejected``.  Lifecycles that never eject (dropped packets)
    are reported separately by :func:`lost_packets`.
    """
    open_inject: Dict[int, TraceEvent] = {}
    spans: List[Dict] = []
    for event in events:
        if event.kind == EV_INJECT:
            open_inject[event.pid] = event
        elif event.kind == EV_EJECT:
            start = open_inject.pop(event.pid, None)
            start_cycle = start.cycle if start is not None else event.cycle
            info = start.info if start is not None else ()
            spans.append(
                {
                    "pid": event.pid,
                    "start": start_cycle,
                    "end": event.cycle,
                    "src": info[0] if len(info) > 4 else -1,
                    "dst": event.node,
                    "ptype": info[2] if len(info) > 4 else "?",
                    "size_flits": info[3] if len(info) > 4 else 0,
                    "latency": event.info[0] if event.info else (
                        event.cycle - start_cycle
                    ),
                }
            )
    return spans


def lost_packets(events: Sequence[TraceEvent]) -> List[Dict]:
    """Traced injections that never reached an eject event."""
    open_inject: Dict[int, TraceEvent] = {}
    for event in events:
        if event.kind == EV_INJECT:
            open_inject[event.pid] = event
        elif event.kind == EV_EJECT:
            open_inject.pop(event.pid, None)
    return [
        {"pid": ev.pid, "cycle": ev.cycle, "src": ev.node}
        for ev in open_inject.values()
    ]


def hop_spans(events: Sequence[TraceEvent]) -> List[Dict]:
    """One span per (packet, router) residency: head arrival → tail out.

    A hop with no matching tail (packet still buffered at trace end, or
    events past the cap) is closed at the packet's last event cycle."""
    open_hop: Dict[Tuple[int, int], TraceEvent] = {}
    last_cycle: Dict[int, int] = {}
    spans: List[Dict] = []
    for event in events:
        last_cycle[event.pid] = event.cycle
        key = (event.pid, event.node)
        if event.kind == EV_HOP:
            open_hop[key] = event
        elif event.kind == EV_TAIL:
            start = open_hop.pop(key, None)
            if start is not None:
                spans.append(
                    {
                        "pid": event.pid,
                        "node": event.node,
                        "start": start.cycle,
                        "end": event.cycle,
                        "port": start.info[0] if start.info else -1,
                        "vc": start.info[1] if len(start.info) > 1 else -1,
                        "out_port": event.info[0] if event.info else -1,
                    }
                )
    for (pid, node), start in open_hop.items():
        spans.append(
            {
                "pid": pid,
                "node": node,
                "start": start.cycle,
                "end": last_cycle.get(pid, start.cycle),
                "port": start.info[0] if start.info else -1,
                "vc": start.info[1] if len(start.info) > 1 else -1,
                "out_port": -1,
            }
        )
    spans.sort(key=lambda span: (span["start"], span["node"], span["pid"]))
    return spans


def engine_spans(events: Sequence[TraceEvent]) -> List[Dict]:
    """One span per engine job: start → end/abort/degraded."""
    open_job: Dict[Tuple[int, int], TraceEvent] = {}
    spans: List[Dict] = []
    for event in events:
        if event.kind != EV_ENGINE:
            continue
        mode, what = event.info
        key = (event.pid, event.node)
        if what == "start":
            open_job[key] = event
        else:
            start = open_job.pop(key, None)
            if start is not None:
                spans.append(
                    {
                        "pid": event.pid,
                        "node": event.node,
                        "mode": mode,
                        "outcome": what,
                        "start": start.cycle,
                        "end": event.cycle,
                    }
                )
    spans.sort(key=lambda span: (span["start"], span["node"], span["pid"]))
    return spans


# -- Chrome trace-event JSON --------------------------------------------------
def _span_event(
    name: str,
    cat: str,
    pid: int,
    tid: int,
    start: int,
    end: int,
    args: Optional[Dict] = None,
) -> Dict:
    event = {
        "name": name,
        "cat": cat,
        "ph": "X",
        "pid": pid,
        "tid": tid,
        "ts": start * US_PER_CYCLE,
        "dur": max(1, end - start) * US_PER_CYCLE,
    }
    if args:
        event["args"] = args
    return event


def _instant_event(
    name: str, cat: str, pid: int, tid: int, cycle: int, args: Optional[Dict] = None
) -> Dict:
    event = {
        "name": name,
        "cat": cat,
        "ph": "i",
        "s": "t",
        "pid": pid,
        "tid": tid,
        "ts": cycle * US_PER_CYCLE,
    }
    if args:
        event["args"] = args
    return event


def _metadata(pid: int, tid: Optional[int], name: str) -> Dict:
    event: Dict = {
        "name": "process_name" if tid is None else "thread_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def to_chrome_trace(
    events: Sequence[TraceEvent],
    *,
    label: str = "repro",
    correlation: Optional[str] = None,
) -> Dict:
    """Render recorded events as a Chrome trace-event JSON object.

    Load the written file at ``ui.perfetto.dev``: the *packets* process
    shows one track per traced packet (its full lifecycle span plus
    retransmit/CRC/duplicate instants), *routers* one track per router
    (per-hop residency spans), *engines* one track per (de)compressor.
    ``correlation`` (the service's submit-time id, when the trace came
    out of a service unit) rides in ``otherData`` so a Perfetto load is
    joinable with the service log and journal.
    """
    trace_events: List[Dict] = [
        _metadata(PID_PACKETS, None, f"{label}: packets"),
        _metadata(PID_ROUTERS, None, f"{label}: routers"),
        _metadata(PID_ENGINES, None, f"{label}: engines"),
    ]
    router_nodes = set()
    engine_nodes = set()

    for span in packet_spans(events):
        trace_events.append(
            _span_event(
                "packet",
                "packet",
                PID_PACKETS,
                span["pid"],
                span["start"],
                span["end"],
                {
                    "src": span["src"],
                    "dst": span["dst"],
                    "ptype": span["ptype"],
                    "size_flits": span["size_flits"],
                    "latency_cycles": span["latency"],
                },
            )
        )
    for span in hop_spans(events):
        router_nodes.add(span["node"])
        trace_events.append(
            _span_event(
                f"pkt {span['pid']}",
                "hop",
                PID_ROUTERS,
                span["node"],
                span["start"],
                span["end"],
                {
                    "in_port": span["port"],
                    "vc": span["vc"],
                    "out_port": span["out_port"],
                },
            )
        )
    for span in engine_spans(events):
        engine_nodes.add(span["node"])
        trace_events.append(
            _span_event(
                f"{span['mode']} pkt {span['pid']}",
                "engine",
                PID_ENGINES,
                span["node"],
                span["start"],
                span["end"],
                {"outcome": span["outcome"]},
            )
        )
    # Protocol/fault incidents as instants on the packet's own track.
    instant_names = {
        EV_RETX: "retransmit",
        EV_CRC_REJECT: "crc_reject",
        EV_DUP: "duplicate_dropped",
        EV_DROP: "ni_drop",
    }
    for event in events:
        name = instant_names.get(event.kind)
        if name is None:
            continue
        trace_events.append(
            _instant_event(
                name,
                "incident",
                PID_PACKETS,
                event.pid,
                event.cycle,
                {"node": event.node, "info": list(event.info)},
            )
        )
    for node in sorted(router_nodes):
        trace_events.append(_metadata(PID_ROUTERS, node, f"router {node}"))
    for node in sorted(engine_nodes):
        trace_events.append(_metadata(PID_ENGINES, node, f"engine {node}"))
    other: Dict = {
        "clock": "1 simulated cycle = 1 trace microsecond",
        "label": label,
    }
    if correlation:
        other["correlation_id"] = correlation
    return {
        "displayTimeUnit": "ms",
        "otherData": other,
        "traceEvents": trace_events,
    }


def write_chrome_trace(
    path: str,
    events: Sequence[TraceEvent],
    *,
    label: str = "repro",
    correlation: Optional[str] = None,
) -> Dict:
    """Write the Chrome trace JSON to ``path``; returns the trace dict."""
    trace = to_chrome_trace(events, label=label, correlation=correlation)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, separators=(",", ":"))
    return trace


# -- JSONL --------------------------------------------------------------------
def write_jsonl(path: str, events: Iterable[TraceEvent]) -> int:
    """Write raw events as JSONL, one compact object per line
    (``jq``/pandas-friendly); returns the number of lines written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for event in events:
            fh.write(json.dumps(event.to_dict(), separators=(",", ":")))
            fh.write("\n")
            count += 1
    return count


# -- summaries (report-table inputs) -----------------------------------------
def node_hop_counts(events: Sequence[TraceEvent]) -> Dict[int, int]:
    """Traced head-flit arrivals per router — the heatmap input."""
    counts: Dict[int, int] = {}
    for event in events:
        if event.kind == EV_HOP:
            counts[event.node] = counts.get(event.node, 0) + 1
    return counts


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) with linear interpolation.

    The classic "linear" / "type 7" definition (numpy's default): rank
    ``q * (n - 1)`` into the sorted sample, interpolating between the
    two straddling order statistics.  Implemented in pure stdlib so the
    quantile math is identical with or without numpy — the pinned
    unit test holds both paths to the same numbers.
    """
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    low = int(rank)
    frac = rank - low
    if frac == 0.0:
        return ordered[low]
    return ordered[low] + (ordered[low + 1] - ordered[low]) * frac


def latency_percentiles(
    events: Sequence[TraceEvent],
    quantiles: Sequence[float] = (0.5, 0.95, 0.99),
) -> Dict[str, float]:
    """p50/p95/p99 (by default) of traced end-to-end latencies, keyed
    ``p50``-style; empty when no ejection carried a latency."""
    latencies = [
        float(event.info[0])
        for event in events
        if event.kind == EV_EJECT and event.info
    ]
    if not latencies:
        return {}
    return {
        f"p{round(q * 100):d}": percentile(latencies, q) for q in quantiles
    }


def latency_histogram(
    events: Sequence[TraceEvent], bins: int = 8
) -> List[Tuple[str, int]]:
    """Bucketed end-to-end latencies of traced ejections.

    Returns ``(label, count)`` rows with equal-width bins over the
    observed range — small traces stay readable, outliers visible.
    """
    latencies = [
        int(event.info[0])
        for event in events
        if event.kind == EV_EJECT and event.info
    ]
    if not latencies:
        return []
    low, high = min(latencies), max(latencies)
    if low == high:
        return [(f"{low}", len(latencies))]
    width = max(1, (high - low + bins) // bins)
    counts: Dict[int, int] = {}
    for value in latencies:
        counts[(value - low) // width] = counts.get((value - low) // width, 0) + 1
    return [
        (f"{low + b * width}-{low + (b + 1) * width - 1}", counts[b])
        for b in sorted(counts)
    ]


def summarize_trace(events: Sequence[TraceEvent]) -> Dict:
    """Aggregate view for reports: span counts, heat, latency histogram."""
    spans = packet_spans(events)
    latencies = [span["latency"] for span in spans]
    return {
        "events": len(events),
        "packet_spans": len(spans),
        "lost_packets": len(lost_packets(events)),
        "hop_spans": len(hop_spans(events)),
        "engine_spans": len(engine_spans(events)),
        "node_hop_counts": node_hop_counts(events),
        "latency_histogram": latency_histogram(events),
        "latency_percentiles": latency_percentiles(events),
        "mean_latency": (
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
    }
