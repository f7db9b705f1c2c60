"""Shared simulation runner: parallel fan-out + two-level result cache.

A :class:`RunSpec` pins every degree of freedom of one simulation.  The
simulator is deterministic (seeded RNGs, no wall-clock — see
:mod:`repro.sim`), so a spec fully determines its
:class:`~repro.cmp.system.SimulationResult`; that makes results cacheable
and simulations embarrassingly parallel:

- **Memo cache** (per process): experiments that share runs — Fig. 5's
  latency view and Fig. 7's energy view of the identical simulations —
  only pay once per process, as before.
- **Disk cache** (cross-process, content-addressed): results are pickled
  under ``~/.cache/repro-disco/`` (override with ``REPRO_CACHE_DIR``)
  keyed by a stable hash of the spec plus a code fingerprint
  (:data:`CODE_VERSION` + a digest of the ``repro`` sources), so
  re-running a figure is free and any code change invalidates stale
  results automatically.  Disable with ``REPRO_DISK_CACHE=0``; clear with
  :func:`clear_disk_cache` (or just delete the directory).
- **Parallel fan-out**: :func:`run_specs` dispatches uncached specs over
  a process pool (workers default to the CPU count; pin with
  ``REPRO_JOBS``, ``REPRO_JOBS=1`` forces serial).  Determinism
  guarantees the parallel results are bit-identical to serial runs — the
  acceptance tests assert it field for field.

One :class:`Executor` runs every attempt, for :func:`run_specs` and the
campaign service alike: a per-attempt timeout (``REPRO_SPEC_TIMEOUT``
seconds, default 600; ``0`` disables), one retry rule (an error is
retried once, a worker death until ``REPRO_QUARANTINE_AFTER``
interruptions quarantine the spec) and one journal rule.  A batch with
unrecoverable failures raises :class:`RunnerError` naming exactly the
failed specs while the survivors stay in the memo/disk caches.

The cache directory has one write protocol.  Disk-cache entries and
checkpoints are sealed envelopes (:func:`_seal`/:func:`_unseal`: a
4-byte magic per file kind, SHA-256, pickle); an envelope that fails
validation is quarantined (renamed ``*.corrupt``) once and recomputed.
Results, checkpoints, heartbeats, the service's port file and flight
records are all published by :func:`repro.publish.publish_atomic`, and
journal appends are single writes under a POSIX record lock
(:func:`_journal_append`).

Crash safety (see :mod:`repro.experiments.checkpoint`): a campaign keeps
an append-only JSONL journal (``campaign.journal.jsonl`` in the cache
directory) recording each spec's state (pending/running/done/failed/
quarantined); ``run_specs(resume=True)`` (or ``REPRO_RESUME=1``) seeds
each spec's interruption count from it: done specs come from the caches,
partially-run ones restore from their latest checkpoint, crash-looped
ones are quarantined by the retry rule.
With ``REPRO_WATCHDOG_SECONDS`` set, the executor arms the stall
watchdog of :mod:`repro.experiments.supervision` with its pool, and each
run keeps a heartbeat file while it is in flight.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import pickle
import random
import signal
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, replace as _dc_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cmp.config import SystemConfig
from repro.cmp.schemes import make_scheme
from repro.cmp.system import CmpSystem, SimulationResult
from repro.noc.reliability import InvariantViolation
from repro.publish import publish_atomic
from repro.telemetry import flight
from repro.telemetry.events import emit
from repro.telemetry.log import (
    correlation_scope,
    current_correlation,
    ensure_level,
    get_logger,
)
from repro.telemetry.profiler import (
    RunProfile,
    merge_profiles,
    render_profile,
    write_profile,
)
from repro.workloads.profiles import get_profile
from repro.workloads.trace import generate_traces

#: Structured runner log (stdlib logging under the ``repro`` tree; level
#: from ``REPRO_LOG_LEVEL``, raised to INFO by ``verbose=True`` calls).
_LOG = get_logger("repro.runner")

#: Benchmarks used by the figure experiments (a PARSEC subset keeps the
#: pure-Python cycle-level runs tractable; pass ``workloads=...`` to the
#: experiment functions for the full suite).
DEFAULT_WORKLOADS = (
    "blackscholes",
    "bodytrack",
    "canneal",
    "dedup",
    "fluidanimate",
    "freqmine",
    "streamcluster",
    "x264",
)

#: Accesses per core for figure-quality runs and for quick (test) runs.
FIGURE_ACCESSES = 1500
QUICK_ACCESSES = 300

#: Warmup fraction of every run a spec describes (cold-start exclusion).
WARMUP_FRACTION = 0.25

#: Sample size used to train statistical algorithms (SC², FVC) per run.
TRAIN_LINES = 512

#: Bumped when simulation semantics change in a way the source fingerprint
#: cannot see (e.g. a data-file format change).  Part of every disk-cache
#: key, so bumping it invalidates all cached results at once.
CODE_VERSION = "1"

#: Disk-cache envelope magic (see :func:`_seal`; checkpoints use ``RDK1``).
#: Bump it when the envelope layout changes: entries with any other prefix
#: are quarantined, not parsed.
_CACHE_MAGIC = b"RDC1"
_ENVELOPE_HEADER = len(_CACHE_MAGIC) + hashlib.sha256().digest_size

#: Default per-spec timeout for pool futures (seconds).
_DEFAULT_SPEC_TIMEOUT = 600.0

#: Pid of the process that imported this module.  Fork workers inherit the
#: parent's value, so ``os.getpid() != _MAIN_PID`` identifies pool workers
#: — the destructive test fault modes (``exit``/``hang``) only fire there,
#: never in the orchestrating process or its serial fallback.
_MAIN_PID = os.getpid()


class RunnerError(RuntimeError):
    """One or more specs in a batch failed after retries.

    ``failures`` maps each failed :class:`RunSpec` to its exception;
    ``completed`` holds every survivor — also already published to the
    memo/disk caches, so a rerun only repeats the failures.  ``prior``
    maps specs to the exception their *first* attempt raised, so a
    flaky-then-fatal sequence (say, a timeout followed by a crash) is
    fully visible in the message instead of only the last symptom.
    ``correlation`` (defaulting to the ambient correlation id when the
    batch ran inside a service/submit context) is appended to the
    message, so a failed-spec report in a client's traceback joins the
    service log, journal and flight records on one token.
    """

    def __init__(
        self,
        failures: Dict[RunSpec, BaseException],
        completed: Dict[RunSpec, "SimulationResult"],
        prior: Optional[Dict[RunSpec, BaseException]] = None,
        correlation: Optional[str] = None,
    ):
        self.failures = dict(failures)
        self.completed = dict(completed)
        self.prior = dict(prior) if prior else {}
        self.correlation = (
            correlation if correlation is not None else current_correlation()
        )

        def describe(spec: RunSpec) -> str:
            name = (
                f"{spec.scheme}/{spec.algorithm}:{spec.workload}"
                f"({spec.topology} {spec.width}x{spec.height}, "
                f"seed {spec.seed})"
            )
            earlier = self.prior.get(spec)
            if earlier is not None:
                name += f" (first attempt: {earlier!r})"
            return name

        names = ", ".join(describe(spec) for spec in failures)
        first = next(iter(failures.values()))
        suffix = f" [corr={self.correlation}]" if self.correlation else ""
        super().__init__(
            f"{len(failures)} of {len(failures) + len(completed)} specs "
            f"failed [{names}]; first error: {first!r}{suffix}"
        )


@dataclass(frozen=True)
class RunSpec:
    """Everything that identifies one simulation."""

    scheme: str
    workload: str
    algorithm: str = "delta"
    width: int = 4
    height: int = 4
    accesses_per_core: int = FIGURE_ACCESSES
    seed: int = 7
    l2_sets_per_bank: int = 32
    l2_hit_latency: int = 4
    #: Fabric shape ("mesh", "torus", "ring", "cmesh"); the wrap-around
    #: fabrics get the escape VCs their route needs.
    topology: str = "mesh"
    # -- telemetry knobs (repro.telemetry; all off by default — they are
    # part of the spec key, so a traced run never aliases an untraced
    # cached result) -----------------------------------------------------
    #: Time-series sampler interval in cycles (0 = off).
    stats_interval: int = 0
    #: Per-packet lifecycle tracing (events land in ``result.telemetry``).
    trace_packets: bool = False
    #: Trace every Nth injected packet (1 = every packet).
    trace_sample_interval: int = 1
    #: Per-component wall-clock profiling of the simulator; the profile
    #: rides in ``result.profile`` (named ``profile_run`` because
    #: :meth:`profile` already names the workload profile accessor).
    profile_run: bool = False

    def noc_config(self) -> "NocConfig":
        from repro.noc.config import NocConfig
        from repro.noc.topology import min_vcs_per_vnet

        return NocConfig(
            width=self.width,
            height=self.height,
            topology=self.topology,
            vcs_per_vnet=min_vcs_per_vnet(self.topology),
            stats_interval=self.stats_interval,
            trace_packets=self.trace_packets,
            trace_sample_interval=self.trace_sample_interval,
        )

    def config(self) -> SystemConfig:
        base = SystemConfig.scaled_fabric(
            self.noc_config(), l2_sets_per_bank=self.l2_sets_per_bank
        )
        if self.l2_hit_latency != base.l2_hit_latency:
            base = _dc_replace(base, l2_hit_latency=self.l2_hit_latency)
        return base

    def profile(self):
        return get_profile(self.workload)


# --------------------------------------------------------------------------
# cache keys
# --------------------------------------------------------------------------

_SOURCE_FINGERPRINT: Optional[str] = None


def _source_fingerprint() -> str:
    """Digest of every ``repro`` source file (cached per process).

    Any edit to the simulator invalidates disk-cached results without
    anyone having to remember to bump :data:`CODE_VERSION`; stable across
    processes because it hashes file bytes, not interpreter state.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent  # src/repro
        try:
            for top, _, names in sorted(os.walk(root)):
                for name in sorted(n for n in names if n.endswith(".py")):
                    path = Path(top, name)
                    digest.update(path.relative_to(root).as_posix().encode())
                    digest.update(path.read_bytes())
        except OSError:  # pragma: no cover - zip/frozen installs
            pass
        _SOURCE_FINGERPRINT = digest.hexdigest()
    return _SOURCE_FINGERPRINT


def spec_key(spec: RunSpec) -> str:
    """Stable content address of (spec, code version) — identical across
    processes and interpreter sessions, independent of hash
    randomization."""
    token = json.dumps(
        {
            "spec": asdict(spec),
            "code_version": CODE_VERSION,
            "source": _source_fingerprint(),
        },
        sort_keys=True,
    )
    return hashlib.sha256(token.encode()).hexdigest()


# --------------------------------------------------------------------------
# the two cache levels
# --------------------------------------------------------------------------

#: Per-process memo.
_CACHE: Dict[RunSpec, SimulationResult] = {}

def cache_dir() -> Path:
    """Disk-cache directory (``REPRO_CACHE_DIR`` overrides the default)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    return Path("~/.cache/repro-disco").expanduser()


def disk_cache_enabled() -> bool:
    return os.environ.get("REPRO_DISK_CACHE", "1") != "0"


def clear_cache() -> None:
    """Drop all memoized in-process results (tests use this for isolation).

    The disk cache is left alone; see :func:`clear_disk_cache`.
    """
    _CACHE.clear()


def clear_disk_cache() -> int:
    """Delete every cached result file (and quarantined ``*.corrupt``
    leftovers); returns how many were removed."""
    removed = 0
    directory = cache_dir()
    if directory.is_dir():
        for path in directory.iterdir():
            if not path.name.endswith((".pkl", ".pkl.corrupt")):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
    return removed


def _disk_path(spec: RunSpec) -> Path:
    return cache_dir() / f"{spec_key(spec)}.pkl"


def _disk_load(spec: RunSpec) -> Optional[SimulationResult]:
    if not disk_cache_enabled():
        return None
    return _unseal(_CACHE_MAGIC, _disk_path(spec))


def _disk_store(spec: RunSpec, result: SimulationResult) -> None:
    if not disk_cache_enabled():
        return
    try:
        publish_atomic(_disk_path(spec), _seal(_CACHE_MAGIC, result))
    except OSError:  # pragma: no cover - read-only cache dir
        pass


# --------------------------------------------------------------------------
# sealed envelopes (disk-cache results and checkpoints)
# --------------------------------------------------------------------------


def _seal(magic: bytes, obj) -> bytes:
    """The envelope of ``obj``: ``magic`` (4 bytes, the file kind and
    format version), the SHA-256 of the pickle, then the pickle."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return magic + hashlib.sha256(payload).digest() + payload


def _unseal(magic: bytes, path: Path):
    """The object sealed at ``path`` under ``magic``, or ``None``.

    A missing file is a plain miss.  An unreadable file (permissions, a
    directory), a truncated, wrong-magic or bit-rotted envelope, and a
    checksum-valid pickle this build cannot reconstruct (say, a renamed
    class the source fingerprint missed) are all quarantined, then
    missed: the caller recomputes.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except FileNotFoundError:
        return None
    except OSError:
        _quarantine(path)
        return None
    header, payload = blob[:_ENVELOPE_HEADER], blob[_ENVELOPE_HEADER:]
    if header != magic + hashlib.sha256(payload).digest():
        _quarantine(path)
        return None
    try:
        return pickle.loads(payload)
    except Exception:
        _quarantine(path)
        return None


def _quarantine(path: Path) -> None:
    """Move a bad envelope aside (``<name>.corrupt``) so it is inspected
    at most once: the rename is what guarantees the *next* lookup is a
    clean miss instead of another validation failure.  The flight
    recorder dumps (a no-op with it off), so the corrupt file joins the
    service log and journal on the correlation id."""
    try:
        os.replace(path, path.with_name(path.name + ".corrupt"))
    except OSError:  # pragma: no cover - concurrent quarantine/cleanup
        return
    emit("envelope_quarantine", path=str(path))


def result_digest(result: SimulationResult) -> str:
    """Stable content digest of one result's observable counters.

    The same payload the chaos drills hash: both registry snapshots plus
    the headline scalars, JSON-canonicalized.  Two runs of one spec are
    bit-identical exactly when their digests match, so the service
    streams this with every completed spec and the drills compare it
    against a golden serial run.
    """
    payload = {
        "full": sorted(result.snapshot_full.flat().items()),
        "measured": sorted(result.snapshot_measured.flat().items()),
        "cycles": result.cycles,
        "avg_miss_latency": result.avg_miss_latency,
    }
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


# --------------------------------------------------------------------------
# running
# --------------------------------------------------------------------------


def _maybe_inject_runner_fault(spec: RunSpec) -> None:
    """Test hook: ``REPRO_RUNNER_FAULT=mode:scheme:workload[:marker]``.

    Sabotages the simulation of one (scheme, workload) so the batch-level
    failure handling can be exercised end to end with real processes:

    - ``crash``       raise RuntimeError on every attempt;
    - ``crash-once``  raise once, then succeed (``marker`` file latches);
    - ``exit``        kill the *worker* process outright (os._exit) — the
      classic ``BrokenProcessPool`` trigger; never fires in the main
      process, so the serial fallback completes;
    - ``hang-once``   sleep past any sane spec timeout once
      (``REPRO_RUNNER_HANG_SECONDS``, default 5), then succeed.
    """
    setting = os.environ.get("REPRO_RUNNER_FAULT", "")
    if not setting:
        return
    parts = setting.split(":")
    if len(parts) < 3 or spec.scheme != parts[1] or spec.workload != parts[2]:
        return
    mode = parts[0]
    marker = Path(parts[3]) if len(parts) > 3 else None
    in_worker = os.getpid() != _MAIN_PID

    def _latch() -> bool:
        """True the first time only (marker file records the firing)."""
        if marker is None or marker.exists():
            return False
        try:
            marker.touch(exist_ok=False)
        except OSError:
            return False
        return True

    if mode == "crash":
        raise RuntimeError(f"injected runner fault for {spec.workload}")
    if mode == "crash-once" and _latch():
        raise RuntimeError(f"injected one-shot fault for {spec.workload}")
    if mode == "exit" and in_worker:
        os._exit(13)
    if mode == "hang-once" and in_worker and _latch():
        time.sleep(float(os.environ.get("REPRO_RUNNER_HANG_SECONDS", "5")))


def _log_simulation(spec: RunSpec) -> None:
    """Chaos-test hook: append the spec key to ``REPRO_SIM_LOG`` whenever
    a simulation actually executes (as opposed to being served from a
    cache) — a resumed campaign proves zero recomputation by intersecting
    this log with the journal's done set."""
    path = os.environ.get("REPRO_SIM_LOG", "").strip()
    if not path:
        return
    try:
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(spec_key(spec) + "\n")
    except OSError:
        pass


def _simulate(
    spec: RunSpec,
    verbose: bool = False,
    correlation: Optional[str] = None,
) -> SimulationResult:
    """Build and run one simulation (no caches — the pool workers' entry
    point, importable at module top level so specs pickle across
    processes).

    ``correlation`` is the service's submit-time id: bound as the log
    context for the whole run (every worker-side record carries it) and
    stamped into the kernel's free-form annotations.  It never enters
    the spec key or the result, so caching, digests and the disk-cache
    envelope are byte-identical with or without it.
    """
    if correlation is None:
        correlation = current_correlation()
    with correlation_scope(correlation):
        return _simulate_in_scope(spec, verbose)


def build_system(spec: RunSpec) -> CmpSystem:
    """A fresh, un-run system for ``spec``: the one place a spec becomes a
    system (config, scheme, traces, algorithm training, profiling)."""
    config = spec.config()
    traces = generate_traces(
        spec.profile(),
        config.n_cores,
        spec.accesses_per_core,
        seed=spec.seed,
        line_size=config.line_size,
    )
    system = CmpSystem(
        config,
        make_scheme(spec.scheme, algorithm=spec.algorithm),
        traces,
        warmup_fraction=WARMUP_FRACTION,
    )
    # SC²'s and FVC's offline sampling phase: train the statistical
    # algorithm on a workload sample (the same training in every scheme).
    train = getattr(system.algorithm, "train", None)
    if train is not None and spec.algorithm in ("sc2", "fvc"):
        train(system.pool.sample(TRAIN_LINES, seed=spec.seed + 1))
    if spec.profile_run:
        system.kernel.enable_timing()
    return system


def _simulate_in_scope(spec: RunSpec, verbose: bool) -> SimulationResult:
    _maybe_inject_runner_fault(spec)
    _log_simulation(spec)
    if verbose:
        ensure_level(logging.INFO)
    # Crash-safe plumbing — all of it collapses to None/no-op under the
    # default environment, keeping the hot path byte-identical.
    from repro.experiments import checkpoint as _checkpoint, supervision

    session = _checkpoint.session_for(spec)
    system = session.restore() if session is not None else None
    if system is None:
        system = build_system(spec)
    else:
        _LOG.info(
            "[%s] restored checkpoint at cycle %d",
            spec_key(spec)[:12],
            system.cycle,
        )
    correlation = current_correlation()
    if correlation:
        system.kernel.annotations["correlation_id"] = correlation
    _LOG.info(
        "[%s] running %s/%s on %s (%s %dx%d, seed %d)",
        spec_key(spec)[:12],
        spec.scheme,
        spec.algorithm,
        spec.workload,
        spec.topology,
        spec.width,
        spec.height,
        spec.seed,
    )
    timeout = _spec_timeout()
    deadline = time.monotonic() + timeout if timeout is not None else None
    progress = supervision.progress_hook(spec)
    start = time.perf_counter()
    try:
        result = system.run(
            checkpoint_fn=session.step if session is not None else None,
            deadline=deadline,
            progress_fn=progress,
        )
    except BaseException as exc:
        # A violated conservation invariant is a simulator bug, and its
        # postmortem says so; anything else dumps as ``exception``.
        emit(
            "invariant_violation"
            if isinstance(exc, (InvariantViolation, AssertionError))
            else "exception",
            key=spec_key(spec),
            scheme=spec.scheme,
            workload=spec.workload,
            cycle=system.cycle,
            error=repr(exc),
            phase_seconds=system.kernel.phase_seconds,
        )
        raise
    finally:
        supervision.end_heartbeat()
        if session is not None:
            session.close()
    if session is not None:
        session.on_success()
    if result.profile is not None:
        # Stamp the end-to-end wall clock (simulate + collect) so the
        # campaign aggregate can report cycles/second throughput.
        result.profile.wall_seconds = time.perf_counter() - start
    return result


def run_spec(spec: RunSpec, verbose: bool = False) -> SimulationResult:
    """Run (or recall) one simulation: memo -> disk -> simulate."""
    result = Executor.lookup(spec)
    if result is None:
        result = _simulate(spec, verbose=verbose)
        _store(spec, result, verbose)
    return result


#: Variables whose unparseable value has already been warned about.
_ENV_WARNED: set = set()


def _env_number(name: str, parse, default):
    """``parse`` of the environment variable ``name``; ``default`` when it
    is unset or blank.

    The one reader of every numeric setting.  An unparseable value also
    reads as ``default``, with a :class:`RuntimeWarning` naming the
    variable and the value, once per variable per process: a typo'd
    ``REPRO_WATCHDOG_SECONDS=30s`` should not silently switch the
    watchdog off.
    """
    env = os.environ.get(name, "").strip()
    if not env:
        return default
    try:
        return parse(env)
    except ValueError:
        if name not in _ENV_WARNED:
            _ENV_WARNED.add(name)
            warnings.warn(
                f"ignoring invalid {name}={env!r} (not a number); "
                f"using the default",
                RuntimeWarning,
                stacklevel=3,
            )
        return default


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` if set (min 1), else the CPU count."""
    return max(1, _env_number("REPRO_JOBS", int, os.cpu_count() or 1))


def _retry_backoff(spec: Optional[RunSpec] = None) -> float:
    """Jittered pause (seconds) before resubmitting a failed spec.

    A retry fired immediately after a failure tends to land in the same
    transient condition that killed the first attempt (a loaded machine,
    a descriptor-exhaustion spike); a short randomized pause decorrelates
    the attempts.  Base seconds come from ``REPRO_RETRY_BACKOFF``
    (default 0.1; ``0`` disables, unparseable values use the default)
    and the actual sleep is uniform in [0.5x, 1.5x] of the base.  When a
    spec is given the jitter is drawn from a generator seeded by its key
    — reproducible across runs, decorrelated across specs — instead of
    the process-global RNG (whose draws would otherwise depend on
    everything else that consumed randomness first).
    """
    base = _env_number("REPRO_RETRY_BACKOFF", float, 0.1)
    if base <= 0:
        return 0.0
    rng = random.Random(spec_key(spec)) if spec is not None else random
    return rng.uniform(0.5, 1.5) * base


def _spec_timeout() -> Optional[float]:
    """Per-spec future timeout in seconds (``REPRO_SPEC_TIMEOUT``; ``0``
    or negative disables, unparseable values use the default)."""
    value = _env_number("REPRO_SPEC_TIMEOUT", float, _DEFAULT_SPEC_TIMEOUT)
    return value if value > 0 else None


# --------------------------------------------------------------------------
# campaign journal (append-only JSONL; the resume ledger)
# --------------------------------------------------------------------------


def _journal_path() -> Path:
    return cache_dir() / "campaign.journal.jsonl"


#: Excludes this process's own threads from the journal (see
#: :func:`_journal_append`).
_JOURNAL_MUTEX = threading.Lock()


def _journal_append(key: Optional[str], state: str, **extra) -> None:
    """Append one spec-state record.  Journal I/O failures never take a
    campaign down — the journal is a recovery aid, not a correctness
    dependency (results still flow through the content-addressed
    caches).  ``key=None`` (a unit that is not journaled, such as a fault
    campaign) is a no-op.

    The record is encoded up front and written with one ``os.write`` on
    an ``O_APPEND`` descriptor under :data:`_JOURNAL_MUTEX` and an
    exclusive ``fcntl.lockf`` record lock on that descriptor, so
    concurrent writers (threads, processes, hosts whose filesystem
    honours POSIX locks) each land a whole line; a torn *tail* can only
    come from a crash mid-write, which replay tolerates.  The kernel
    drops a killed holder's lock with its process, so a crash never
    makes later writers wait.  Three rules keep the lock sound:

    - A POSIX record lock belongs to the process, not the descriptor or
      the thread, so two threads of one process would both "hold" it;
      the module mutex is what excludes the process's own threads.
    - Closing *any* descriptor of the file drops every record lock the
      process holds on it, so :func:`_journal_read` takes the same mutex:
      a read closing its descriptor mid-append would otherwise unlock
      another thread's write.
    - The lock is ``lockf``, not ``flock``.  A ``flock`` belongs to the
      open file description, which a forked child shares: the child keeps
      the lock after the parent closes its descriptor, and pool workers
      fork while dispatcher threads journal.  A forked child never
      inherits a record lock.
    """
    if key is None:
        return
    record = {"key": key, "state": state, "ts": time.time()}
    corr = current_correlation()
    if corr:
        # The ambient correlation id (service submit context) makes every
        # journal line greppable alongside the HTTP events and flight
        # records; explicit ``corr=`` kwargs still win.
        record.setdefault("corr", corr)
    record.update(extra)
    line = (json.dumps(record, sort_keys=True) + "\n").encode()
    path = _journal_path()
    with _JOURNAL_MUTEX:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_APPEND | os.O_WRONLY, 0o644)
            try:
                try:
                    fcntl.lockf(fd, fcntl.LOCK_EX)
                except OSError:
                    pass  # a mount without lock support: still one write
                os.write(fd, line)
            finally:
                os.close(fd)  # also releases the record lock
        except OSError:
            pass


def _journal_read() -> Dict[str, dict]:
    """Fold the journal into per-key ``{"state", "attempts"}`` entries
    (plus ``corr`` when any record for the key carried a correlation id —
    the join token that lines the journal up with service logs, flight
    records and ``/submit`` responses).

    Last record wins for ``state``.  Every ``running`` record counts one
    attempt and any clean terminal record (``done``/``failed``) resets
    the count, so ``attempts`` measures *consecutive interrupted runs* —
    a crash between ``running`` and its terminal record leaves the
    attempt standing, and that asymmetry is exactly what detects
    crash-looping poison specs.  Torn or unparseable lines (a crash
    mid-append) are skipped, not fatal.
    """
    entries: Dict[str, dict] = {}
    try:
        with _JOURNAL_MUTEX, open(_journal_path(), encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return entries
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn tail from a crash mid-append
        key = record.get("key")
        state = record.get("state")
        if not isinstance(key, str) or not isinstance(state, str):
            continue
        entry = entries.setdefault(key, {"state": state, "attempts": 0})
        entry["state"] = state
        if isinstance(record.get("corr"), str):
            entry["corr"] = record["corr"]
        if state == "running":
            entry["attempts"] += 1
        elif state in ("done", "failed"):
            entry["attempts"] = 0
    return entries


def _quarantine_after() -> int:
    """Crash-loop bound: a spec interrupted mid-run this many consecutive
    times is quarantined on resume instead of retried forever
    (``REPRO_QUARANTINE_AFTER``, default 3, minimum 1)."""
    return max(1, _env_number("REPRO_QUARANTINE_AFTER", int, 3))


def _store(spec: RunSpec, result: SimulationResult, verbose: bool) -> None:
    _CACHE[spec] = result
    _disk_store(spec, result)
    if verbose:
        ensure_level(logging.INFO)
    _LOG.info(
        "[%s] finished %s/%s on %s (%s %dx%d): %d cycles, "
        "avg miss latency %.1f",
        spec_key(spec)[:12],
        spec.scheme,
        spec.algorithm,
        spec.workload,
        spec.topology,
        spec.width,
        spec.height,
        result.cycles,
        result.avg_miss_latency,
    )


# --------------------------------------------------------------------------
# the executor (one execution core for run_specs and the service)
# --------------------------------------------------------------------------

#: Attempt outcomes and retry decisions (:meth:`Executor.decide`).
DONE, ERROR, INTERRUPTED = "done", "error", "interrupted"
RETRY, FAILED, QUARANTINED = "retry", "failed", "quarantined"


def _pool_worker_init() -> None:
    """Restore default signal dispositions in pool workers.

    A caller may install a graceful SIGTERM handler (the service does);
    forked workers would inherit it and *swallow* the SIGTERM the pool
    sends during broken-pool cleanup — the worker lingers, the pool's
    join never returns, and interpreter shutdown wedges.  Workers must
    die on SIGTERM and ignore the terminal's SIGINT (the parent
    coordinates shutdown)."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


class Executor:
    """The execution core under :func:`run_specs` and the service: the
    memo → disk lookup, a lazy pool of ``workers`` processes (torn down
    once per generation when a worker dies, reported to ``on_respawn``;
    the watchdog armed with it), one :meth:`attempt`, the retry rule
    (:meth:`decide`) and the journal transitions — ``running`` per
    attempt a worker takes, then ``done``/``failed``/``quarantined``.
    ``workers=0`` runs spec attempts in-process through :func:`run_spec`.
    Threads may share one executor."""

    def __init__(self, workers: int, verbose: bool = False, on_respawn=None):
        self.workers = workers
        self.verbose = verbose
        self.on_respawn = on_respawn
        self.generation = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        self._lock = threading.RLock()
        self._watchdog = None  # the stall watchdog, armed with the pool
        self._abandoned = False

    @staticmethod
    def lookup(spec: RunSpec, key: Optional[str] = None) -> Optional[SimulationResult]:
        """Memo, then disk cache; a hit resolves journal ``key`` done."""
        result = _CACHE.get(spec)
        if result is None:
            result = _disk_load(spec)
            if result is None:
                return None
            _CACHE[spec] = result
        _journal_append(key, "done")
        return result

    @staticmethod
    def admit(key: str, **extra) -> None:
        """Journal a unit ``pending``."""
        _journal_append(key, "pending", **extra)

    def attempt(
        self, spec: Optional[RunSpec], *call, key: Optional[str] = None
    ) -> Tuple[str, object]:
        """Dispatch ``spec`` (or ``call``, ``fn, *args``, for a pooled unit
        that is not a spec), wait up to ``REPRO_SPEC_TIMEOUT``, classify:
        ``(DONE, value)`` with a spec published to the caches, ``(ERROR,
        exc)`` for its own exception or a timeout, ``(INTERRUPTED, exc)``
        when a worker died under it."""
        generation, future = self.generation, None
        try:
            if not self.workers:
                _journal_append(key, "running")
                value = run_spec(spec, self.verbose)
            else:
                if spec is not None:
                    call = (_simulate, spec, False, current_correlation())
                with self._lock:
                    generation = self.generation
                    future = self.start().submit(*call)
                _journal_append(key, "running")
                value = future.result(timeout=_spec_timeout())
                if spec is not None:
                    _store(spec, value, self.verbose)
        except BrokenProcessPool as exc:
            self._respawn(generation)
            return INTERRUPTED, exc
        except Exception as exc:
            if future is not None and not future.done():  # the wait ran out
                future.cancel()  # no-op if already running
                self._abandoned = True  # a worker may still be wedged
                what = spec or call[0].__name__
                exc = TimeoutError(f"exceeded {_spec_timeout()}s: {what}")
            return ERROR, exc
        _journal_append(key, "done")
        return DONE, value

    def start(self) -> ProcessPoolExecutor:
        """The live pool, spawned now if there is none, with the watchdog
        if it is configured; workers fork from the calling thread (a
        worker forked from a dispatch thread inherits that thread's malloc
        arena and peaks about 1 MB higher)."""
        from repro.experiments.supervision import start_watchdog

        with self._lock:
            if self._pool is None:
                if self._watchdog is None:
                    self._watchdog = start_watchdog()
                self._pool = ProcessPoolExecutor(
                    self.workers, initializer=_pool_worker_init
                )
                self._pool.submit(int)  # a pool forks at its first submit
            return self._pool

    @staticmethod
    def decide(
        kind: str,
        n: int,
        spec: Optional[RunSpec] = None,
        key: Optional[str] = None,
        error: Optional[BaseException] = None,
    ) -> Tuple[str, float]:
        """``(verdict, delay)`` for a unit's ``n``-th ``kind`` outcome: an
        error is retried once, an interruption until
        ``REPRO_QUARANTINE_AFTER``, after ``min(_retry_backoff(spec) *
        2**(n-1), 5s)``; terminal verdicts are journaled under ``key``."""
        if kind == ERROR and n >= 2:
            _journal_append(key, "failed", error=repr(error))
            return FAILED, 0.0
        if kind == INTERRUPTED and n >= _quarantine_after():
            _journal_append(key, "quarantined", attempts=n)
            return QUARANTINED, 0.0
        return RETRY, min(_retry_backoff(spec) * 2 ** (n - 1), 5.0)

    def _respawn(self, generation: int) -> None:
        """Tear a broken pool down once, whichever of its attempts
        reports it first."""
        with self._lock:
            if generation != self.generation:
                return  # a sibling attempt already tore it down
            self.generation += 1
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
        if self.on_respawn is not None:
            self.on_respawn(self.generation)

    def close(self, wait: bool = True) -> None:
        """Shut the pool down — never joining a worker an abandoned
        attempt may have wedged — and stop the watchdog."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait and not self._abandoned, cancel_futures=True)
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.stop()


def _profile_destination(profile_out: Optional[str]) -> Optional[str]:
    """Where the aggregated ``profile.json`` goes: the explicit argument,
    else ``REPRO_PROFILE_OUT``, else nowhere."""
    if profile_out is not None:
        return profile_out
    env = os.environ.get("REPRO_PROFILE_OUT", "").strip()
    return env or None


def _emit_profile(
    results: Dict[RunSpec, SimulationResult],
    profile_out: Optional[str],
    verbose: bool,
) -> Optional[RunProfile]:
    """Aggregate per-run profiles and write ``profile.json`` if asked.

    Only runs executed with ``profile_run=True`` carry a profile; a batch
    with none is a silent no-op.  Cached results keep the profile of the
    run that populated the cache (wall-clock is host-dependent anyway).
    """
    merged = merge_profiles(
        [result.profile for result in results.values()]
    )
    if merged is None:
        return None
    if verbose:
        ensure_level(logging.INFO)
    _LOG.info("%s", render_profile(merged))
    path = _profile_destination(profile_out)
    if path:
        write_profile(path, merged)
        _LOG.info("profile written to %s", path)
    return merged


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    verbose: bool = False,
    profile_out: Optional[str] = None,
    resume: Optional[bool] = None,
) -> Dict[RunSpec, SimulationResult]:
    """Resolve a batch of specs: the synchronous caller of the
    :class:`Executor`.

    Duplicate specs are deduplicated; cached results (memo or disk) are
    never resubmitted, so figures sharing runs stay shared across both
    processes and invocations.  Misses are dispatched in list order, at
    most ``jobs`` attempts in flight — in-process through
    :func:`run_spec` when ``jobs == 1`` (or one miss).  Determinism makes
    the parallel path bit-identical to the serial one.

    Failure containment: a spec that fails (after the executor's one
    retry) never takes the batch down with it.  Survivors land in the
    memo/disk caches and a :class:`RunnerError` naming exactly the failed
    specs is raised at the end, with the completed results attached.  A
    worker death breaks the pool: unlike the service, which respawns it,
    a batch reruns the specs it left unresolved in-process.

    Every batch journals its misses to ``campaign.journal.jsonl``.  With
    ``resume=True`` (default: the ``REPRO_RESUME=1`` environment switch)
    each spec's interruption count is seeded from a crashed campaign's
    journal: completed specs are already served by the caches,
    partially-run specs restore from their latest checkpoint inside
    :func:`_simulate`, and the retry rule backs an interrupted spec off
    before its first dispatch or, at ``REPRO_QUARANTINE_AFTER``,
    quarantines it into the failure set instead of retrying it forever.
    """
    out: Dict[RunSpec, SimulationResult] = {}
    misses: List[RunSpec] = []
    for spec in dict.fromkeys(specs):
        cached = Executor.lookup(spec)
        if cached is None:
            misses.append(spec)
        else:
            out[spec] = cached
    failures: Dict[RunSpec, BaseException] = {}
    prior: Dict[RunSpec, BaseException] = {}
    if misses:
        if resume is None:
            resume = os.environ.get("REPRO_RESUME", "") == "1"
        keys = {spec: spec_key(spec) for spec in misses}
        for spec in misses:
            Executor.admit(keys[spec])
        journal = _journal_read() if resume else {}
        resume_set_here = False
        if resume and os.environ.get("REPRO_RESUME", "") != "1":
            # Checkpoint restoration inside the workers keys off the
            # environment; propagate an explicit resume=True to them.
            os.environ["REPRO_RESUME"] = "1"
            resume_set_here = True
        try:
            jobs = default_jobs() if jobs is None else max(1, jobs)
            batch = (keys, journal, out, failures, prior, verbose)
            unresolved = _dispatch(misses, min(jobs, len(misses)), *batch)
            # A worker death broke the pool: rerun what it left in-process.
            _dispatch(unresolved, 1, *batch)
        finally:
            if resume_set_here:
                os.environ.pop("REPRO_RESUME", None)
    # Aggregate profiles before any failure raise, so survivors of a
    # partially-failed batch still land in profile.json.
    _emit_profile(out, profile_out, verbose)
    if failures:
        raise RunnerError(failures, out, prior)
    return out


def _dispatch(
    misses: Sequence[RunSpec],
    jobs: int,
    keys: Dict[RunSpec, str],
    journal: Dict[str, dict],
    out: Dict[RunSpec, SimulationResult],
    failures: Dict[RunSpec, BaseException],
    prior: Dict[RunSpec, BaseException],
    verbose: bool,
) -> List[RunSpec]:
    """Resolve ``misses`` in list order, at most ``jobs`` at a time
    (in-process for one), each from its interruption count in a resumed
    ``journal`` (consumed once); ``prior`` keeps first errors.  Returns
    what a broken pool left unresolved: nothing is dispatched after it
    breaks."""
    executor = Executor(jobs if jobs > 1 else 0, verbose)
    corr = current_correlation()

    def resolve(spec: RunSpec) -> None:
        key = keys[spec]
        n = journal.pop(key, {}).get("attempts", 0)
        verdict, delay = (
            executor.decide(INTERRUPTED, n, spec, key) if n else (RETRY, 0.0)
        )
        while verdict == RETRY and not executor.generation:
            time.sleep(delay)
            with correlation_scope(corr):
                kind, value = executor.attempt(spec, key=key)
            if kind != ERROR:
                if kind == DONE:
                    out[spec] = value
                return
            n = 2 if spec in prior else 1
            prior.setdefault(spec, value)
            verdict, delay = executor.decide(ERROR, n, spec, key, value)
        if verdict == FAILED:
            failures[spec] = value
        elif verdict == QUARANTINED:
            failures[spec] = RuntimeError(
                f"quarantined after {n} interrupted attempts: "
                f"{spec.scheme}:{spec.workload}"
            )

    threads = ThreadPoolExecutor(jobs) if jobs > 1 else None
    try:
        if threads is not None:
            executor.start()  # fork the workers from this thread
        for _ in threads.map(resolve, misses) if threads else map(resolve, misses):
            pass
    finally:
        if threads is not None:
            threads.shutdown(cancel_futures=True)
        executor.close()
    return [spec for spec in misses if spec not in out and spec not in failures]
