"""Driving ``python -m repro.service`` from outside, over HTTP.

:class:`Service` starts the service and times it until ``/health/ready``
answers 200.  :func:`closed_loop` runs one client thread per submission
list; each submits one spec and waits for its result event before
submitting the next.  :func:`probe` times the calls whose cost is the
service's own: a submit+wait served from cache and a ``/metrics``
scrape.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Dict, List, Tuple

from ledger import percentile
from procs import Child

#: Admission must never shed in the benchmark: a shed would be a failed
#: unit, not load.
ADMIT_ALL = ("--rate", "1000000", "--burst", "1000000")
PROBE_SAMPLES = 20
#: Socket timeout of every client call, and how long a client may still
#: wait for its last unit after submissions stop.
CLIENT_TIMEOUT_S = 60.0


class Service:
    """A running service; use as a context manager."""

    def __init__(self, workdir: Path, env: Dict[str, str], workers: int,
                 deadline: float):
        from repro.service.client import ServiceClient

        port_file = workdir / "service.port"
        port_file.unlink(missing_ok=True)
        self.child = Child(
            [sys.executable, "-m", "repro.service", "--port", "0",
             "--port-file", str(port_file), "--workers", str(workers),
             *ADMIT_ALL],
            env, workdir / "service.log",
        )
        try:
            while not port_file.exists():
                self._check(deadline)
            self.url = f"http://127.0.0.1:{port_file.read_text().strip()}"
            self.client = ServiceClient(self.url, timeout=CLIENT_TIMEOUT_S)
            while True:
                try:
                    if self.client.health("ready")[0]:
                        break
                except OSError:
                    pass
                self._check(deadline)
        except BaseException:
            self.child.__exit__()
            raise
        self.setup_s = time.perf_counter() - self.child.started

    def _check(self, deadline: float) -> None:
        if self.child.proc.poll() is not None:
            raise RuntimeError(f"service exited (log: {self.child.log})")
        if time.perf_counter() > deadline:
            raise TimeoutError("service did not become ready")
        time.sleep(0.005)

    def stop(self, deadline: float) -> float:
        """SIGTERM (drain and exit 0), reap; returns peak RSS in MB."""
        self.child.send(signal.SIGTERM)
        code = self.child.reap(deadline)
        if code != 0:
            raise RuntimeError(
                f"service exited {code} (log: {self.child.log})"
            )
        return self.child.maxrss_mb

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.child.__exit__(*exc)


def _submit_and_wait(client, spec: Dict, name: str) -> Dict:
    from repro.service.client import OverloadedError

    try:
        job = client.submit(specs=[spec], client=name)
        results, failures = client.wait(job)
    except OverloadedError:
        return {"status": "shed"}
    except (RuntimeError, OSError, TimeoutError) as exc:
        return {"status": "error", "error": repr(exc)}
    if failures or len(results) != 1:
        return {"status": "failed", "error": repr(failures)}
    event = results[0]
    return {"status": "ok", "digest": event["digest"],
            "cycles": event["cycles"], "cached": event["cached"]}


def closed_loop(service: Service, plan: List[List[Tuple[Dict, int]]],
                stop_at: float) -> Tuple[float, List]:
    """Run every client list concurrently; returns ``(wall_s, units)``
    where each unit records its client, index, ``first`` (see
    :func:`workloads.service_plan`), latency and outcome.  Clients stop
    submitting at ``stop_at`` (``time.perf_counter``) and finish the unit
    they are waiting for."""
    units: List[Dict] = []
    lock = threading.Lock()

    def run(client_index: int, entries: List[Tuple[Dict, int]]) -> None:
        for index, (spec, first) in enumerate(entries):
            start = time.perf_counter()
            if start > stop_at:
                return
            outcome = _submit_and_wait(
                service.client, spec, f"ledger-{client_index}"
            )
            outcome.update(
                client=client_index, index=index, first=first, spec=spec,
                latency_s=time.perf_counter() - start,
            )
            with lock:
                units.append(outcome)

    threads = [
        threading.Thread(target=run, args=(i, entries), daemon=True)
        for i, entries in enumerate(plan)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, stop_at - time.perf_counter())
                    + CLIENT_TIMEOUT_S)
        if thread.is_alive():
            raise TimeoutError("a client got no result for its last unit")
    return time.perf_counter() - start, units


def _timed(call, samples: int) -> List[float]:
    out = []
    for _ in range(samples):
        start = time.perf_counter()
        call()
        out.append(time.perf_counter() - start)
    return out


def probe(service: Service, spec: Dict) -> Dict[str, float]:
    """Median cached round trip and ``/metrics`` scrape, in ms."""
    first = _submit_and_wait(service.client, spec, "ledger-probe")
    if first["status"] != "ok":
        raise RuntimeError(f"probe unit failed: {first}")

    def cached() -> None:
        again = _submit_and_wait(service.client, spec, "ledger-probe")
        if again.get("digest") != first["digest"] or not again["cached"]:
            raise RuntimeError(f"cached probe unit differs: {again}")

    def scrape() -> None:
        url = f"{service.url}/metrics"
        try:
            with urllib.request.urlopen(url, timeout=30) as response:
                response.read()
        except urllib.error.URLError as exc:
            raise RuntimeError(f"scrape failed: {exc}") from exc

    return {
        "service.cached_roundtrip_ms":
            1e3 * percentile(_timed(cached, PROBE_SAMPLES), 50),
        "service.metrics_scrape_ms":
            1e3 * percentile(_timed(scrape, PROBE_SAMPLES), 50),
    }


def service_stats(service: Service) -> Dict[str, float]:
    """The ``/stats`` counters the ledger prints."""
    counters = service.client.stats()["counters"]
    group = counters["service"]
    completed = max(1, group["units_completed"])
    return {
        "cache_hit_ratio": group["cache_hits"] / completed,
        "retries": group["retries"],
        "units_failed": group["units_failed"] + group["units_quarantined"],
        "queue_age_ms_mean": (
            group["queue_age_ms_total"] / max(1, group["queue_age_samples"])
        ),
        "units_shed": counters["admission"]["units_shed"],
    }
