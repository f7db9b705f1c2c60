"""Child processes of the ledger: environment, launch, reaping.

Every measured process starts in its own session, so it and the pool
workers it forks can be stopped together.  Reaping uses ``os.wait4``,
whose resource usage covers the child and every descendant it waited
for; that is where ``peak_rss_mb`` comes from.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
WORKER = Path(__file__).with_name("worker.py")


class ChildError(RuntimeError):
    """A child exited non-zero, timed out, or printed no result."""


def child_env(cache_dir: Path, jobs: int, src: Path = SRC) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus a
    private disk cache and a pinned worker count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(src)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_JOBS"] = str(jobs)
    return env


class Child:
    """A running child process; use as a context manager so it is always
    stopped and reaped."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str],
                 log: Path, stdin: Optional[str] = None):
        self.started = time.perf_counter()
        with open(log, "ab") as handle:
            self.proc = subprocess.Popen(
                list(argv), cwd=ROOT, env=env,
                stdin=subprocess.PIPE if stdin is not None
                else subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=handle, text=True,
                start_new_session=True,
            )
        self.log = log
        self.ready_at: Optional[float] = None
        self.lines: List[str] = []
        self.maxrss_mb = 0.0
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        if stdin is not None:
            self.proc.stdin.write(stdin)
            self.proc.stdin.close()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if self.ready_at is None and line.strip() == "READY":
                self.ready_at = time.perf_counter()
            else:
                self.lines.append(line)

    @property
    def setup_s(self) -> float:
        if self.ready_at is None:
            raise ChildError(f"child never became ready (log: {self.log})")
        return self.ready_at - self.started

    def reap(self, deadline: float) -> int:
        """Wait for exit until ``deadline`` (``time.perf_counter``), else
        kill the whole session; returns the exit code."""
        pid = self.proc.pid
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.perf_counter() > deadline:
                self._kill_group(signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024.0
        self._reader.join(timeout=10)
        # Anything the child left behind in its session goes too.
        self._kill_group(signal.SIGKILL)
        self._wait_group_gone(deadline=time.perf_counter() + 2)
        return self.proc.returncode

    def send(self, signum: int) -> None:
        if self.proc.returncode is None:
            self.proc.send_signal(signum)

    def _kill_group(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def _wait_group_gone(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                os.killpg(self.proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                return
            time.sleep(0.01)

    def result(self) -> Dict:
        """The JSON object on the child's last output line."""
        if self.proc.returncode != 0:
            raise ChildError(
                f"child exited {self.proc.returncode} (log: {self.log})"
            )
        for line in reversed(self.lines):
            if line.strip():
                return json.loads(line)
        raise ChildError(f"child printed no result (log: {self.log})")

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.returncode is None:
            self.reap(deadline=time.perf_counter())


def run_worker(mode: str, request: Dict, env: Dict[str, str], log: Path,
               deadline: float) -> Child:
    """Run ``worker.py MODE`` to completion; returns the reaped child
    (``setup_s``, ``maxrss_mb`` and ``result()``)."""
    with Child([sys.executable, str(WORKER), mode], env, log,
               stdin=json.dumps(request)) as child:
        child.reap(deadline)
    child.result()
    return child
