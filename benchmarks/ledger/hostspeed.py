"""Host speed beside a measurement, read from a fixed reference loop.

The 2-vCPU VM the ledger was calibrated on changes speed for tens of
seconds at a time: a fixed pure-Python loop takes 7 ms in fast periods
and 12-13 ms in slow ones, and CPU time equals wall time throughout, so
no clock of the measured processes can tell the two apart.  In a busy
hour, eight 20 s runs of one seed spread by up to 45% between quartiles
in host seconds, for reasons that have nothing to do with the program.

:class:`HostSpeed` starts one sampler process pinned to each CPU the
benchmark may use.  Every 100 ms a sampler times :func:`reference_loop`
(about 0.25 ms) in its own thread CPU time and sleeps again, so it takes
well under 1% of a CPU from the workload.  The mean over the measured
interval, :attr:`HostSpeed.ref_s`, is how long the host took for one
loop while the workload ran.  :meth:`HostSpeed.reference_seconds`
converts a host time into *reference seconds*: the time the same work
would take on a host that runs the loop in :data:`REFERENCE_LOOP_S`
(about this VM's usual speed).  The host's speed changes cancel out of
reference seconds.  The loop is the benchmark's own code, but the
samplers share their CPUs, caches and idle gaps with the workload, so a
program change could still move it; ``bench.py slowdown`` checks that a
known slowdown of the program reads as such in reference seconds
(README.md, *Does a slowdown survive the conversion?*).

Usage: ``python hostspeed.py CPU OUT`` runs one sampler until killed.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List

PERIOD_S = 0.1
#: The reference host's time for one :func:`reference_loop`.
REFERENCE_LOOP_S = 250e-6
#: How long a sampler may take to start and write its first sample.
STARTUP_S = 10.0


def reference_loop() -> int:
    table: dict = {}
    for i in range(2000):
        table[i & 255] = table.get(i & 127, 0) + i
    return len(table)


def sample(cpu: int, out: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    with open(out, "w", encoding="utf-8") as handle:
        while True:
            start = time.thread_time()
            reference_loop()
            handle.write(f"{time.thread_time() - start:.9f}\n")
            handle.flush()
            time.sleep(PERIOD_S)


class HostSpeed:
    """Samplers running for the life of the ``with`` block; :attr:`ref_s`
    is then the mean seconds one reference loop took."""

    def __init__(self, workdir: Path):
        self._cpus = sorted(os.sched_getaffinity(0))
        self._outs = [workdir / f"hostspeed-{cpu}.txt" for cpu in self._cpus]
        self._procs: List[subprocess.Popen] = []
        self.ref_s = 0.0

    def __enter__(self) -> "HostSpeed":
        for cpu, out in zip(self._cpus, self._outs):
            self._procs.append(subprocess.Popen(
                [sys.executable, __file__, str(cpu), str(out)],
                stdin=subprocess.DEVNULL, start_new_session=True,
            ))
        return self

    def __exit__(self, *exc) -> None:
        # A very short block still gets every sampler's first sample.
        give_up = time.perf_counter() + STARTUP_S
        while exc[0] is None and time.perf_counter() < give_up and not all(
                out.exists() and out.stat().st_size for out in self._outs):
            time.sleep(0.01)
        for proc in self._procs:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        if exc[0] is not None:
            return
        samples = []
        for out in self._outs:
            if out.exists():
                # Everything before the last newline: whole samples only.
                lines = out.read_text().split("\n")[:-1]
                samples += [float(line) for line in lines]
        if not samples:
            raise RuntimeError("no host-speed samples were taken")
        self.ref_s = statistics.mean(samples)

    def reference_seconds(self, host_seconds: float) -> float:
        return host_seconds * REFERENCE_LOOP_S / self.ref_s


if __name__ == "__main__":
    sample(int(sys.argv[1]), Path(sys.argv[2]))
