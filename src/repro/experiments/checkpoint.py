"""Crash-safe checkpointing of in-flight simulations.

A checkpoint is the live :class:`~repro.cmp.system.CmpSystem`, pickled
whole, stored with its spec key and the pid watermark (the next packet
id, which a restore raises this process's counter past).  Restoring is
unpickling it: nothing is rebuilt from the spec.  The envelope, its
atomic publish and the quarantine of a corrupt file are the runner's
(:func:`~repro.experiments.runner._seal`,
:func:`~repro.experiments.runner._unseal`,
:func:`~repro.experiments.runner._publish_atomic`), under the magic
``RDK1`` instead of the disk cache's ``RDC1``, so the two file kinds can
never be confused.  The envelope carries no format version: it is filed
under the spec key, which hashes every ``repro`` source file, so changed
code never looks an old checkpoint up.  This module adds two rules: the
last two generations are retained (``<key>.ckpt`` / ``<key>.ckpt.1``),
so a crash *during* a checkpoint write still leaves a valid older
envelope behind, and an envelope whose recorded spec key is not the one
it is filed under is quarantined like a corrupt one.  After a
quarantine the older generation is tried next.

Everything is configured by environment variables — deliberately outside
:class:`~repro.experiments.runner.RunSpec`, so cache keys, result
envelopes and golden digests are untouched whether checkpointing is on
or off:

- ``REPRO_CHECKPOINT_INTERVAL`` — cycles between periodic checkpoints
  (default ``0`` = off);
- ``REPRO_CHECKPOINT_DIR`` — envelope directory (default
  ``<cache_dir>/checkpoints``);
- ``REPRO_RESUME=1`` — restore from the latest valid checkpoint even
  when periodic writing is off (the campaign resume path).

With periodic writing on, SIGTERM/SIGINT are latched cooperatively: the
handler only sets a flag, the run loop's ``checkpoint_fn`` hook writes a
final envelope at a safe point and then re-raises the termination — so a
``kill`` never tears a checkpoint in half.
"""

from __future__ import annotations

import os
import signal
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cmp.system import CmpSystem
from repro.experiments.runner import (
    _env_number,
    _publish_atomic,
    _quarantine,
    _seal,
    _unseal,
    cache_dir,
    spec_key,
)
from repro.noc.flit import ensure_pid_floor, pid_watermark

#: Checkpoint envelope magic ("RDK" = repro disco kernel state).
CHECKPOINT_MAGIC = b"RDK1"

#: Process-wide count of successful checkpoint restores (tests assert the
#: resume path actually restored instead of silently recomputing).
_RESTORES = 0


def restores() -> int:
    """Checkpoint restores performed so far in this process."""
    return _RESTORES


# --------------------------------------------------------------------------
# configuration (environment only — never part of the spec/cache key)
# --------------------------------------------------------------------------


def checkpoint_interval() -> int:
    """Cycles between periodic checkpoints; 0 (the default) disables."""
    return max(0, _env_number("REPRO_CHECKPOINT_INTERVAL", int, 0))


def checkpoint_dir() -> Path:
    override = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
    if override:
        return Path(override).expanduser()
    return cache_dir() / "checkpoints"


def resume_enabled() -> bool:
    return os.environ.get("REPRO_RESUME", "") == "1"


# --------------------------------------------------------------------------
# the two generations
# --------------------------------------------------------------------------


def checkpoint_paths(key: str) -> Tuple[Path, Path]:
    """(current, previous) envelope paths for one spec key."""
    directory = checkpoint_dir()
    return directory / f"{key}.ckpt", directory / f"{key}.ckpt.1"


def save_checkpoint(key: str, cycle: int, state) -> Path:
    """Atomically publish a checkpoint of ``state`` (normally the live
    system), rotating the previous one.

    Safe under concurrent writers of the same key (two hosts sharing the
    cache directory can legitimately both run one spec): the rotation
    tolerates the current generation vanishing under us — another writer
    just rotated it — and whichever publish lands last leaves a complete
    envelope (the simulator is deterministic, so either writer's envelope
    restores the same run).
    """
    current, previous = checkpoint_paths(key)
    blob = _seal(
        CHECKPOINT_MAGIC,
        {
            "spec_key": key,
            "cycle": cycle,
            "pid_watermark": pid_watermark(),
            "state": state,
        },
    )
    try:
        os.replace(current, previous)  # last-two retention
    except FileNotFoundError:  # first save, or a concurrent rotation
        pass
    _publish_atomic(current, blob)
    return current


def load_checkpoint(key: str) -> Optional[Dict]:
    """Latest valid envelope for ``key`` (falls back to the previous
    generation when the current one is corrupt); ``None`` when none.
    An envelope filed under another spec key is quarantined too."""
    for path in checkpoint_paths(key):
        envelope = _unseal(CHECKPOINT_MAGIC, path)
        if isinstance(envelope, dict) and envelope.get("spec_key") == key:
            return envelope
        if envelope is not None:
            _quarantine(path)  # misfiled under the wrong key
    return None


def discard_checkpoints(key: str) -> None:
    """Delete both generations (the spec completed; the disk-cache result
    now supersedes any mid-run state)."""
    for path in checkpoint_paths(key):
        try:
            path.unlink()
        except OSError:
            pass


# --------------------------------------------------------------------------
# cooperative termination latch
# --------------------------------------------------------------------------


class _SignalLatch:
    """SIGTERM/SIGINT set a flag; the run loop flushes and re-raises."""

    def __init__(self) -> None:
        self.signum: Optional[int] = None
        self._previous: Dict[int, object] = {}

    def install(self) -> None:
        if threading.current_thread() is not threading.main_thread():
            return  # signals are main-thread only; rely on the watchdog
        for signum in (signal.SIGTERM, signal.SIGINT):
            self._previous[signum] = signal.signal(signum, self._handle)

    def uninstall(self) -> None:
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        self.signum = signum

    def reraise(self) -> None:
        signum, self.signum = self.signum, None
        if signum == signal.SIGINT:
            raise KeyboardInterrupt
        raise SystemExit(128 + (signum or 0))


# --------------------------------------------------------------------------
# per-run session (the runner's integration point)
# --------------------------------------------------------------------------


class CheckpointSession:
    """Checkpoint lifecycle of one simulation: restore, periodic saves,
    signal flush, and cleanup on success."""

    def __init__(self, key: str, interval: int):
        self.key = key
        self.interval = interval
        self._latch = _SignalLatch()
        self._last_cycle = 0
        if interval > 0:
            self._latch.install()

    # -- restore -------------------------------------------------------------
    def restore(self) -> Optional[CmpSystem]:
        """The system of the latest valid checkpoint, or ``None`` when
        starting cold.  Packets created after the restore get pids past
        the checkpoint's watermark, so they never collide with restored
        ones in the tracer/integrity/reliability ledgers."""
        global _RESTORES
        envelope = load_checkpoint(self.key)
        if envelope is None:
            return None
        ensure_pid_floor(envelope["pid_watermark"])
        self._last_cycle = envelope["cycle"]
        _RESTORES += 1
        return envelope["state"]

    # -- the run-loop hook ----------------------------------------------------
    def step(self, system: CmpSystem) -> None:
        if self._latch.signum is not None:
            self.save(system)
            self._latch.reraise()
        if not self.interval:
            return
        cycle = system.cycle
        if cycle - self._last_cycle >= self.interval:
            self.save(system)

    def save(self, system: CmpSystem) -> Path:
        cycle = system.cycle
        path = save_checkpoint(self.key, cycle, system)
        self._last_cycle = cycle
        return path

    # -- lifecycle -----------------------------------------------------------
    def on_success(self) -> None:
        discard_checkpoints(self.key)

    def close(self) -> None:
        self._latch.uninstall()


def session_for(spec) -> Optional[CheckpointSession]:
    """A session when any checkpoint feature is requested, else ``None``
    (the provably-inert default: no hooks, no signal handlers, no I/O)."""
    interval = checkpoint_interval()
    if interval <= 0 and not resume_enabled():
        return None
    return CheckpointSession(spec_key(spec), interval)
