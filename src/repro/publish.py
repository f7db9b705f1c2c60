"""Atomic, durable file publication: the one way a file is written in
place of another.

Disk-cache results, checkpoints, heartbeats, the service's port file and
flight records all go through :func:`publish_atomic`.  The module sits
below the runner and telemetry (it imports neither), so both can use it.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def publish_atomic(target: Path, blob: bytes) -> None:
    """Publish ``blob`` at ``target`` atomically (tmp + fsync +
    ``os.replace``).

    Every writer stages into its own ``mkstemp`` file (unique per
    writer, so two processes — or two hosts sharing the directory —
    never touch the same staging file), fsyncs it so a host crash cannot
    publish a torn blob, and renames it onto ``target``.  Concurrent
    writers of the same deterministic result race harmlessly: last
    rename wins with identical bytes, and a reader always sees either a
    complete old blob or a complete new one — never a partial write,
    never a ``.corrupt`` quarantine from a mid-publish read.  The staging
    file is removed on any failure so aborted publishes cannot
    accumulate.
    """
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
