"""Outside-in tracing: wrap public callables, account self time.

:class:`SpanRecorder` replaces a class attribute or module function with
a wrapper that times each call.  Calls are aggregated in memory per name
as count, total and self time, where self time is the call's duration
minus the part covered by wrapped calls nested inside it.  Names wrapped
with ``keep=True`` (the per-spec stages) are also kept one by one, each
with its own id, its parent's id and the spec id shared by every span of
one spec.  Nothing is written until :meth:`SpanRecorder.to_json`.

Because every nested call's duration is subtracted exactly once from its
parent, the self times of all spans under a root add up to the root's
total: the accounting closes by construction, and a gap means a
wrapper is broken.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Optional


class SpanRecorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: One ``[child_seconds]`` cell per active wrapped call.
        self._stack: List[List[float]] = []
        #: Ids of the active kept spans, innermost last.
        self._kept: List[int] = []
        self._agg: Dict[str, List[float]] = {}
        self._patched: List[tuple] = []
        self.spans: List[Dict[str, Any]] = []
        self.spec_id: Optional[str] = None
        self._origin = clock()

    def wrap(self, owner: Any, attr: str, name: str, keep: bool = False):
        """Replace ``owner.attr`` with a timing wrapper named ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        setattr(owner, attr, self._wrapper(original, name, keep))
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrapper(self, fn: Callable, name: str, keep: bool) -> Callable:
        stack = self._stack
        clock = self._clock
        cell = self._agg.setdefault(name, [0, 0.0, 0.0])

        def close(frame: List[float], start: float) -> float:
            duration = clock() - start
            stack.pop()
            cell[0] += 1
            cell[1] += duration
            cell[2] += duration - frame[0]
            if stack:
                stack[-1][0] += duration
            return duration

        if not keep:
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(frame, start)

            return timed

        @functools.wraps(fn)
        def kept(*args, **kwargs):
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": self._kept[-1] if self._kept else None,
                "spec": self.spec_id,
                "name": name,
            }
            self.spans.append(record)
            self._kept.append(span_id)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = close(frame, start)
                self._kept.pop()
                record["start_s"] = start - self._origin
                record["dur_s"] = duration
                record["self_s"] = duration - frame[0]

        return kept

    def aggregates(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"count": int(c), "total_s": total, "self_s": self_s}
            for name, (c, total, self_s) in self._agg.items()
        }

    def to_json(self) -> Dict[str, Any]:
        return {"aggregates": self.aggregates(), "spans": self.spans}
