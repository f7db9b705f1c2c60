"""Crash flight recorder: a bounded ring of recent structured events.

When a pool worker dies — watchdog SIGKILL, OOM, ``BrokenProcessPool``,
invariant violation, checkpoint quarantine — today's evidence is one log
line ("worker process died") and a stale heartbeat file.  The flight
recorder turns that into a postmortem artifact: each process keeps a
bounded ring of recent structured events (scheduler decisions, progress
samples with the simulated cycle, kernel phase timings, the last N log
records) and dumps it as one JSON file next to the heartbeat files,
published like every other file the runner writes
(:func:`repro.publish.publish_atomic`: staged, fsynced, renamed).

SIGKILL is unsurvivable from inside, so the worker-side recorder does
not *react* to death — it **persists ahead of it**: the runner's
progress hook (the same callback that writes heartbeats) periodically
dumps the ring with ``reason="inflight"``, throttled to roughly one
write per second.  When the watchdog kills the worker, the last inflight
dump *is* the flight record — carrying the correlation id and the last
sampled simulated cycle.  Exception paths (invariant violations,
quarantine, broken pools) dump explicitly with their own reason, from
whichever process observed the failure.

Off by default and provably inert: everything here no-ops unless
``REPRO_FLIGHT_DIR`` names a directory.  Nothing in the simulation or
caching path reads the recorder, so results and disk-cache envelopes are
byte-identical with the plane on or off (the invariance test pins this).

Dump schema (``flight_<pid>.json``)::

    {
      "pid": 12345,
      "role": "worker" | "service",
      "reason": "inflight" | "invariant_violation" | "broken_pool"
              | "quarantine" | ...,
      "ts": 1760000000.0,
      "corr": "c0ffee..." | null,        # correlation id, when bound
      "extra": {...},                    # site-specific detail (spec key,
                                         #   last cycle, phase timings...)
      "events": [{"seq": 1, "ts": ..., "kind": ..., ...}, ...],
      "logs":   [{"ts": ..., "level": "INFO", "name": ...,
                  "corr": ..., "message": ...}, ...]
    }
"""

from __future__ import annotations

import json
import logging
import multiprocessing
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional

from repro.publish import publish_atomic
from repro.telemetry.log import CorrelationFilter, current_correlation

#: Ring capacities — small enough that an inflight dump costs microseconds,
#: large enough to hold the tail that explains a death.
EVENT_CAPACITY = 256
LOG_CAPACITY = 64


def flight_dir() -> Optional[Path]:
    """The flight-record directory, or ``None`` when the recorder is off
    (``REPRO_FLIGHT_DIR`` unset/empty — the default)."""
    raw = os.environ.get("REPRO_FLIGHT_DIR", "").strip()
    return Path(raw) if raw else None


def enabled() -> bool:
    return flight_dir() is not None


class FlightRecorder:
    """A thread-safe bounded ring of structured events plus a log tail."""

    def __init__(
        self,
        role: str = "worker",
        capacity: int = EVENT_CAPACITY,
    ):
        self.role = role
        self._lock = threading.Lock()
        self._events: deque = deque(maxlen=capacity)
        self._logs: deque = deque(maxlen=LOG_CAPACITY)
        self._seq = 0

    def record(self, kind: str, **data) -> None:
        """Append one structured event (no-op when the plane is off, so
        hot-path call sites need no guard of their own)."""
        if not enabled():
            return
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": time.time(), "kind": kind}
            event.update(data)
            corr = current_correlation()
            if corr and "corr" not in event:
                event["corr"] = corr
            self._events.append(event)

    def record_log(self, record: logging.LogRecord) -> None:
        if not enabled():
            return
        entry = {
            "ts": record.created,
            "level": record.levelname,
            "name": record.name,
            "corr": getattr(record, "corr", None),
            "message": record.getMessage(),
        }
        with self._lock:
            self._logs.append(entry)

    def snapshot(self) -> Dict[str, List[Dict]]:
        with self._lock:
            return {
                "events": [dict(e) for e in self._events],
                "logs": [dict(entry) for entry in self._logs],
            }

    def dump(
        self,
        reason: str,
        corr: Optional[str] = None,
        extra: Optional[Dict] = None,
    ) -> Optional[Path]:
        """Atomically write the ring as ``flight_<pid>.json``.

        Returns the path written, or ``None`` when the recorder is off
        or the write failed (flight records are a triage aid — a full
        disk must never take the simulation down).  Successive dumps
        from one process replace the file, so the newest state wins —
        exactly what the inflight-ahead-of-SIGKILL strategy needs.
        """
        directory = flight_dir()
        if directory is None:
            return None
        pid = os.getpid()
        payload = {
            "pid": pid,
            "role": self.role,
            "reason": reason,
            "ts": time.time(),
            "corr": corr if corr is not None else current_correlation(),
            "extra": extra or {},
        }
        payload.update(self.snapshot())
        path = directory / f"flight_{pid}.json"
        try:
            blob = json.dumps(payload, sort_keys=True, default=str)
            publish_atomic(path, blob.encode("utf-8"))
        except (OSError, TypeError):
            return None
        return path


class FlightLogHandler(logging.Handler):
    """Tee ``repro`` log records into a recorder's log ring."""

    def __init__(self, recorder: FlightRecorder):
        super().__init__(level=logging.DEBUG)
        self.recorder = recorder
        self.addFilter(CorrelationFilter())

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.recorder.record_log(record)
        except Exception:  # pragma: no cover - never break logging
            self.handleError(record)


_recorder: Optional[FlightRecorder] = None
_recorder_pid: Optional[int] = None
_handler: Optional[FlightLogHandler] = None
_lock = threading.Lock()


def recorder() -> FlightRecorder:
    """The process-wide recorder (per-pid: fork children get their own).

    Lazily installs the log tee on the ``repro`` logger the first time a
    process asks — but only when the plane is enabled, so the default
    environment never grows an extra handler.
    """
    global _recorder, _recorder_pid, _handler
    with _lock:
        pid = os.getpid()
        if _recorder is None or _recorder_pid != pid:
            # The one role rule: ``worker`` in a pool worker (a
            # multiprocessing child), ``service`` anywhere else.
            child = multiprocessing.parent_process() is not None
            _recorder = FlightRecorder(role="worker" if child else "service")
            _recorder_pid = pid
            _handler = None
        if enabled() and _handler is None:
            _handler = FlightLogHandler(_recorder)
            logging.getLogger("repro").addHandler(_handler)
        return _recorder


def reset_for_tests() -> None:
    """Drop the singleton (and its log tee) so tests re-run the lazy
    setup under their own environment."""
    global _recorder, _recorder_pid, _handler
    with _lock:
        if _handler is not None:
            logging.getLogger("repro").removeHandler(_handler)
        _recorder = None
        _recorder_pid = None
        _handler = None


def read_flight_records(
    directory: Optional[Path] = None,
) -> List[Dict]:
    """Load every ``flight_*.json`` in the directory (triage helper for
    drills, tests and CI artifact collection)."""
    directory = directory if directory is not None else flight_dir()
    if directory is None:
        return []
    records = []
    try:
        paths = sorted(Path(directory).glob("flight_*.json"))
    except OSError:
        return []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                records.append(json.load(handle))
        except (OSError, ValueError):
            continue
    return records
