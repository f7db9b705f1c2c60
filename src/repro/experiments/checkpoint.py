"""Crash-safe checkpointing of in-flight simulations.

A checkpoint is the live :class:`~repro.cmp.system.CmpSystem`, pickled
whole, stored with the pid watermark (the next packet id, which a
restore raises this process's counter past) in an ``RDK1`` envelope
(magic + SHA-256 of the payload, the disk-cache format of
:mod:`repro.experiments.runner` with its own magic so the two file kinds
can never be confused).  Restoring is unpickling it: nothing is rebuilt
from the spec.  The envelope carries no format version: it is filed
under the spec key, which hashes every ``repro`` source file, so changed
code never looks an old checkpoint up.  Envelopes are published atomically
(``mkstemp`` + ``os.replace``) and the last two generations are retained
(``<key>.ckpt`` / ``<key>.ckpt.1``), so a crash *during* a checkpoint
write still leaves a valid older envelope behind.  A corrupt envelope is
quarantined (``*.corrupt``) and the older generation is tried next.

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

import hashlib
import os
import pickle
import signal
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.cmp.system import CmpSystem
from repro.noc.flit import ensure_pid_floor, pid_watermark
from repro.telemetry.events import emit

#: Checkpoint envelope format version ("RDK" = repro disco kernel state).
CHECKPOINT_MAGIC = b"RDK1"
_ENVELOPE_HEADER = len(CHECKPOINT_MAGIC) + hashlib.sha256().digest_size

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
    from repro.experiments.runner import _env_number

    return max(0, _env_number("REPRO_CHECKPOINT_INTERVAL", int, 0))


def checkpoint_dir() -> Path:
    override = os.environ.get("REPRO_CHECKPOINT_DIR", "").strip()
    if override:
        return Path(override).expanduser()
    from repro.experiments.runner import cache_dir

    return cache_dir() / "checkpoints"


def resume_enabled() -> bool:
    return os.environ.get("REPRO_RESUME", "") == "1"


# --------------------------------------------------------------------------
# envelope I/O
# --------------------------------------------------------------------------


def checkpoint_paths(key: str) -> Tuple[Path, Path]:
    """(current, previous) envelope paths for one spec key."""
    directory = checkpoint_dir()
    return directory / f"{key}.ckpt", directory / f"{key}.ckpt.1"


def _quarantine(path: Path) -> None:
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - concurrent cleanup
        return
    # A quarantined checkpoint is postmortem-worthy: dump the flight ring
    # (no-op with the plane off) so the corrupt-envelope event joins the
    # service log and journal on the correlation id.
    emit("checkpoint_quarantine", path=str(path))


def save_checkpoint(key: str, cycle: int, state) -> Path:
    """Atomically publish a checkpoint of ``state`` (normally the live
    system), rotating the previous one.

    Safe under concurrent writers of the same key (two hosts sharing the
    cache directory can legitimately both run one spec): the rotation's
    ``os.replace`` tolerates the current generation vanishing under us —
    another writer just rotated it — and the publish itself stages into a
    per-writer ``mkstemp`` file, fsyncs, and renames, so whichever writer
    lands last leaves a complete envelope (the simulator is
    deterministic, so either writer's envelope restores the same run).
    """
    current, previous = checkpoint_paths(key)
    payload = pickle.dumps(
        {
            "spec_key": key,
            "cycle": cycle,
            "pid_watermark": pid_watermark(),
            "state": state,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    blob = CHECKPOINT_MAGIC + hashlib.sha256(payload).digest() + payload
    directory = current.parent
    directory.mkdir(parents=True, exist_ok=True)
    if current.exists():
        try:
            os.replace(current, previous)  # last-two retention
        except FileNotFoundError:  # a concurrent writer won the rotation
            pass
    from repro.experiments.runner import _publish_atomic

    _publish_atomic(directory, current, blob)
    return current


def _read_envelope(path: Path, key: str) -> Optional[Dict]:
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None
    except OSError:
        _quarantine(path)
        return None
    header, payload = blob[:_ENVELOPE_HEADER], blob[_ENVELOPE_HEADER:]
    if (
        len(header) < _ENVELOPE_HEADER
        or not header.startswith(CHECKPOINT_MAGIC)
        or header[len(CHECKPOINT_MAGIC):] != hashlib.sha256(payload).digest()
    ):
        _quarantine(path)  # truncated / wrong magic / bit-rotted
        return None
    try:
        envelope = pickle.loads(payload)
    except Exception:
        _quarantine(path)  # checksum-valid but unreconstructable
        return None
    if not isinstance(envelope, dict) or envelope.get("spec_key") != key:
        _quarantine(path)  # misfiled under the wrong key
        return None
    return envelope


def load_checkpoint(key: str) -> Optional[Dict]:
    """Latest valid envelope for ``key`` (falls back to the previous
    generation when the current one is corrupt); ``None`` when none."""
    for path in checkpoint_paths(key):
        envelope = _read_envelope(path, key)
        if envelope is not None:
            return envelope
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
    from repro.experiments.runner import spec_key

    return CheckpointSession(spec_key(spec), interval)
