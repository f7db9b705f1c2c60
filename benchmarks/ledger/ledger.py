"""Summaries, the ledger file and the parent-versus-change rule.

A ledger is a JSON file ``{"entries": [...]}``.  Each entry is one
workload measured by one invocation: the host fingerprint, the number of
repeats, and for every metric its samples with their median and
quartiles (``statistics.quantiles(samples, n=4)``).
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import time
from importlib.util import find_spec
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Pairs needed before a change may be called improved.
MIN_PAIRS = 10
#: Share of pairs the change must win to be called improved.
WIN_SHARE = 0.9


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile.

    Raises ``ValueError`` unless at least :data:`MIN_BEYOND` samples lie
    beyond it, so a p95 needs 200 samples and a p50 needs 20.
    """
    values = sorted(samples)
    rank = max(1, math.ceil(len(values) * p / 100.0))
    beyond = len(values) - rank
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return values[rank - 1]


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    values = list(samples)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def relative_spread(summary: Dict[str, float]) -> float:
    """Quartile distance as a share of the median."""
    median = abs(summary["median"])
    if median == 0:
        return 0.0 if summary["q3"] == summary["q1"] else math.inf
    return (summary["q3"] - summary["q1"]) / median


# --------------------------------------------------------------------------
# host and ledger file
# --------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint(root: Path) -> Dict[str, object]:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "numpy": find_spec("numpy") is not None,
        "commit": _git_commit(root),
    }


def make_entry(
    kind: str,
    workload: str,
    host: Dict[str, object],
    samples: Dict[str, Tuple[str, str, List[float]]],
    **fields,
) -> Dict[str, object]:
    """One ledger entry; ``samples`` maps metric -> (unit, better, values)."""
    metrics = {}
    for name, (unit, better, values) in samples.items():
        metrics[name] = {
            "unit": unit, "better": better,
            "samples": list(values), **summarize(values),
        }
    return {
        "kind": kind,
        "workload": workload,
        "when": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host,
        **fields,
        "metrics": metrics,
    }


def load(path: Path) -> Dict[str, list]:
    try:
        with open(path, encoding="utf-8") as handle:
            ledger = json.load(handle)
    except FileNotFoundError:
        return {"entries": []}
    if not isinstance(ledger.get("entries"), list):
        raise ValueError(f"{path}: not a ledger (no 'entries' list)")
    return ledger


def append(path: Path, entries: Iterable[Dict[str, object]]) -> None:
    ledger = load(path)
    ledger["entries"].extend(entries)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


#: Entry kinds that measure the tree the ledger was written from.  Drift
#: entries each belong to another source tree, and slowdown entries to a
#: deliberately slowed program.
COMPARED_KINDS = ("run", "trace")


def rows(ledger: Dict[str, list]) -> Dict[Tuple[str, str], Dict]:
    """Concatenate each (workload, metric)'s samples in file order, over
    the entries of :data:`COMPARED_KINDS`."""
    out: Dict[Tuple[str, str], Dict] = {}
    for entry in ledger["entries"]:
        if entry["kind"] not in COMPARED_KINDS:
            continue
        for name, metric in entry["metrics"].items():
            row = out.setdefault(
                (entry["workload"], name),
                {"better": metric["better"], "unit": metric["unit"],
                 "samples": []},
            )
            row["samples"].extend(metric["samples"])
    return out


class Bound(NamedTuple):
    """How much worse a metric's median may get: a share of the parent's
    median, or with ``absolute`` a distance in the metric's own unit."""

    limit: float
    absolute: bool = False

    def allowed(self, parent_median: float) -> float:
        return self.limit if self.absolute else self.limit * abs(
            parent_median)


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[Bound],
) -> Tuple[str, Dict[str, float]]:
    """The §8 rule applied to paired runs (pair ``i`` is ``parent[i]``
    against ``change[i]``; they should have run alternately).

    - improved: at least 10 pairs, the change wins 9/10 of them (ties
      count for neither) and the medians differ by more than the
      parent's quartile distance;
    - regressed: the change's median is worse than the parent's by more
      than ``bound`` allows.  Per-layer metrics have no bound; for them
      it is the mirror of improved;
    - unresolved: either side's quartile distance is wider than the
      bound allows, unless every change run reads better than every
      parent run;
    - unchanged: none of these.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    ps, cs = summarize(parent), summarize(change)
    gain = sign * (cs["median"] - ps["median"])
    parent_iqr = ps["q3"] - ps["q1"]
    detail = {
        "pairs": len(pairs), "wins": wins,
        "parent_median": ps["median"], "change_median": cs["median"],
        "parent_iqr": parent_iqr,
    }

    def decisive(count: int) -> bool:
        return len(pairs) >= MIN_PAIRS and count >= WIN_SHARE * len(pairs)

    if decisive(wins) and gain > parent_iqr:
        return "improved", detail
    if bound is None:
        if decisive(losses) and -gain > parent_iqr:
            return "regressed", detail
        return "unchanged", detail
    allowed = bound.allowed(ps["median"])
    if -gain > allowed:
        return "regressed", detail
    if max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"]) > allowed:
        if min(sign * c for c in change) <= max(sign * p for p in parent):
            return "unresolved", detail
    return "unchanged", detail


def compare(
    parent: Dict[str, list],
    change: Dict[str, list],
    bounds: Dict[str, Bound],
) -> List[Dict[str, object]]:
    """One row per (metric, workload) present in both ledgers; a metric
    missing from ``bounds`` is judged as a per-layer metric."""
    parent_rows, change_rows = rows(parent), rows(change)
    out = []
    for key in sorted(parent_rows.keys() & change_rows.keys()):
        workload, name = key
        p, c = parent_rows[key], change_rows[key]
        result, detail = verdict(
            p["samples"], c["samples"], p["better"], bounds.get(name)
        )
        out.append({
            "workload": workload, "metric": name, "unit": p["unit"],
            "verdict": result, "bound": bounds.get(name), **detail,
        })
    return out
