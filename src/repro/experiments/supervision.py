"""Worker supervision: heartbeats and the stall watchdog.

With ``REPRO_WATCHDOG_SECONDS`` set, a run keeps ``hb_<pid>.json`` in
:func:`heartbeat_dir` while it is in flight, rewritten with its
simulated cycle at most once a second and only every 256 kernel steps,
and removes it when it ends.  An old file therefore means a frozen
cycle: the run is wedged, not merely slow.  :func:`stale_heartbeats` is
the one staleness rule, for the watchdog and the service's readiness
probe alike, and :func:`read_heartbeats` the one reader of the files.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import threading
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

from repro.experiments.runner import RunSpec, _env_number, cache_dir, spec_key
from repro.publish import publish_atomic
from repro.telemetry import flight
from repro.telemetry.events import emit
from repro.telemetry.log import current_correlation


def watchdog_seconds() -> Optional[float]:
    """Stall budget of the pool watchdog (``REPRO_WATCHDOG_SECONDS``;
    unset, 0 or negative disables) — the one reader of that variable."""
    value = _env_number("REPRO_WATCHDOG_SECONDS", float, 0.0)
    return value if value > 0 else None


def heartbeat_dir() -> Optional[Path]:
    """``REPRO_HEARTBEAT_DIR`` if set, else ``<cache dir>/heartbeats/<host
    name>`` while the watchdog is configured, else ``None`` (no
    heartbeats).  A parent and its forked workers derive the same path
    from the environment they share; the host name keeps hosts that
    share a cache directory from sweeping or signalling each other's
    workers."""
    directory = os.environ.get("REPRO_HEARTBEAT_DIR", "").strip()
    if directory:
        return Path(directory)
    if watchdog_seconds() is None:
        return None
    return cache_dir() / "heartbeats" / socket.gethostname()


def progress_hook(spec: RunSpec):
    """The run's progress callback, throttled to about one call a second,
    or ``None`` when heartbeats and the flight recorder are both off.  It
    publishes this process's heartbeat and, since SIGKILL leaves no
    chance to dump after the fact, persists the flight ring *ahead* of
    death (``reason="inflight"``, with the correlation id and the cycle):
    the postmortem the chaos drill reads."""
    directory = heartbeat_dir()
    inflight = flight.enabled()
    if directory is None and not inflight:
        return None
    key = spec_key(spec)
    last = 0.0

    def _progress(system) -> None:
        nonlocal last
        now = time.monotonic()
        if now - last < 1.0:
            return
        last = now
        if directory is not None:
            record = {
                "pid": os.getpid(),
                "key": key,
                "cycle": system.cycle,
                "ts": time.time(),
            }
            corr = current_correlation()
            if corr:
                record["corr"] = corr
            try:
                publish_atomic(
                    directory / f"hb_{os.getpid()}.json",
                    json.dumps(record).encode(),
                )
            except OSError:
                pass
        if inflight:
            emit(
                "inflight",
                key=key,
                scheme=spec.scheme,
                workload=spec.workload,
                cycle=system.cycle,
            )

    return _progress


def end_heartbeat() -> None:
    """Remove this process's heartbeat: its run has ended.  A SIGKILLed
    run leaves its file to :func:`clean_stale_heartbeats`."""
    directory = heartbeat_dir()
    if directory is not None:
        try:
            (directory / f"hb_{os.getpid()}.json").unlink(missing_ok=True)
        except OSError:
            pass


class Heartbeat(NamedTuple):
    """One heartbeat file: the writer's pid (from its ``hb_<pid>.json``
    name), seconds since it was last written, and its record — ``None``
    when the file is torn."""

    path: Path
    pid: Optional[int]
    age: float
    record: Optional[dict]


def read_heartbeats(directory: Optional[Path] = None) -> List[Heartbeat]:
    """Every heartbeat in ``directory`` (default :func:`heartbeat_dir`),
    aged by its mtime.  A file is torn when its name carries no pid or
    its content is not a record with an integer cycle."""
    directory = directory or heartbeat_dir()
    try:
        paths = list(directory.glob("hb_*.json")) if directory else []
    except OSError:
        return []
    beats = []
    for path in paths:
        try:
            age = time.time() - path.stat().st_mtime
            record = json.loads(path.read_bytes())
        except OSError:
            continue  # removed after the listing: its run ended
        except ValueError:
            record = None
        digits = path.stem[len("hb_"):]
        pid = int(digits) if digits.isdigit() else None
        cycle = record.get("cycle") if isinstance(record, dict) else None
        if pid is None or not isinstance(cycle, int):
            record = None
        beats.append(Heartbeat(path, pid, age, record))
    return beats


def stale_heartbeats(
    budget: Optional[float] = None, directory: Optional[Path] = None
) -> List[Heartbeat]:
    """Heartbeats last written more than ``budget`` seconds ago — the one
    staleness rule.  ``budget`` defaults to the watchdog's, or to 60 s
    while the watchdog is off."""
    budget = budget or watchdog_seconds() or 60.0
    return [beat for beat in read_heartbeats(directory) if beat.age > budget]


def _alive(pid: int) -> bool:
    """Whether ``pid`` exists; one owned by another user (``EPERM``) is
    alive: never delete evidence about a process we cannot inspect."""
    try:
        os.kill(pid, 0)
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def clean_stale_heartbeats(directory: Optional[Path] = None) -> int:
    """Remove torn heartbeats and those of dead pids; returns the count.
    A SIGKILLed run (watchdog kill, OOM, chaos drill) never removes its
    file, and a watchdog would read the orphan as a stalled run and
    signal a pid that is gone or recycled, so the watchdog and the
    service sweep before they start."""
    removed = 0
    for beat in read_heartbeats(directory):
        if beat.record is not None and _alive(beat.pid):
            continue
        try:
            beat.path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


class _Watchdog:
    """SIGKILLs each pool worker whose heartbeat goes stale: a wedged run
    (deadlocked, livelocked, stuck outside the run loop), as opposed to
    a slow one, which keeps rewriting it.  The kill surfaces as
    ``BrokenProcessPool``, an interruption the executor's caller
    recovers (plus any checkpoint)."""

    def __init__(self, directory: Path, stall_seconds: float):
        self.directory = directory
        self.stall = stall_seconds
        self.killed: List[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._watch, name="repro-watchdog", daemon=True
        )

    def start(self) -> "_Watchdog":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _watch(self) -> None:
        poll = min(1.0, self.stall / 2)
        while not self._stop.wait(poll):
            self._scan()

    def _scan(self) -> None:
        for beat in stale_heartbeats(self.stall, self.directory):
            if beat.record is None:
                continue
            try:
                beat.path.unlink()
            except OSError:
                pass
            if beat.pid == os.getpid():
                continue  # a stale file must never self-terminate
            try:
                os.kill(beat.pid, getattr(signal, "SIGKILL", signal.SIGTERM))
            except OSError:
                continue
            self.killed.append(beat.pid)
            # The victim's last inflight flight dump survives the kill;
            # record the supervisor's side of the story next to it (the
            # worker's corr rides in the heartbeat record).
            emit(
                "watchdog_kill",
                victim_pid=beat.pid,
                cycle=beat.record["cycle"],
                key=beat.record.get("key"),
                stalled_seconds=beat.age,
                corr=beat.record.get("corr"),
            )


def start_watchdog() -> Optional[_Watchdog]:
    """The stall watchdog, started after sweeping orphan heartbeats, or
    ``None`` while it is off."""
    stall = watchdog_seconds()
    if stall is None:
        return None
    directory = heartbeat_dir()
    clean_stale_heartbeats(directory)
    return _Watchdog(directory, stall).start()
