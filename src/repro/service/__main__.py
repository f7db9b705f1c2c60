"""``python -m repro.service`` — run the campaign service.

Starts the scheduler and the HTTP frontend, then waits for SIGTERM or
SIGINT; on either it stops accepting, drains the backlog (bounded by
``--drain-timeout``), and exits 0 — the clean-shutdown contract the
chaos drill asserts.  Units run through the batch runner's own
:class:`~repro.experiments.runner.Executor`, so all its environment knobs
apply (``REPRO_CACHE_DIR``, ``REPRO_WATCHDOG_SECONDS``,
``REPRO_QUARANTINE_AFTER``, ``REPRO_SPEC_TIMEOUT``...) with the same
meaning: a service is a long-lived, admission-controlled batch runner
that respawns its pool after a worker death instead of finishing the
batch in-process.
"""

from __future__ import annotations

import argparse
import logging
import os
import signal
import sys
import threading
from pathlib import Path

from repro.experiments.runner import _publish_atomic
from repro.service.http import serve
from repro.service.scheduler import CampaignService
from repro.telemetry.log import ensure_level, get_logger

_LOG = get_logger("repro.service.main")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Always-on campaign service for the DISCO runner.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8423,
        help="listen port (0 = ephemeral; see --port-file)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="dispatcher threads / pool processes (default: REPRO_JOBS "
             "or the CPU count)",
    )
    parser.add_argument(
        "--rate", type=float, default=8.0,
        help="per-client admission rate (work units per second)",
    )
    parser.add_argument(
        "--burst", type=float, default=32.0,
        help="per-client token-bucket capacity",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=256,
        help="global backlog bound before submissions shed",
    )
    parser.add_argument(
        "--drain-timeout", type=float, default=60.0,
        help="seconds to finish the backlog on shutdown",
    )
    parser.add_argument(
        "--port-file", default=None,
        help="write the bound port here once listening (for --port 0)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    ensure_level(logging.INFO)
    service = CampaignService(
        workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        max_queue_depth=args.queue_depth,
    ).start()
    server = serve(service, args.host, args.port)
    host, port = server.server_address[:2]
    _LOG.info("listening on http://%s:%d (pid %d)", host, port, os.getpid())
    if args.port_file:
        # Atomic publish so a supervisor polling the file never reads a
        # half-written port number.
        _publish_atomic(Path(args.port_file), str(port).encode())

    stop = threading.Event()

    def _terminate(signum, frame):
        _LOG.info("signal %d: shutting down", signum)
        stop.set()

    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    stop.wait()
    server.shutdown()
    server.server_close()
    drained = service.shutdown(drain=True, timeout=args.drain_timeout)
    if not drained:
        _LOG.warning("backlog not drained inside %.0fs", args.drain_timeout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
