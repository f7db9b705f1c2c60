"""Structured logging for the runner and telemetry layer.

One shared stdlib ``logging`` tree rooted at ``repro``: every message
carries a timestamp, the process id (parallel pool workers interleave on
one terminal) and the logger name, so a line like ::

    14:02:31 41232 repro.runner INFO [a1b2c3d4e5f6] running disco/delta on
    canneal (4x4, seed 7)

can be attributed to its worker and spec without guessing.  The threshold
comes from ``REPRO_LOG_LEVEL`` (name or number, default ``WARNING``);
``verbose=True`` call sites lower it to ``INFO`` for their messages via
:func:`ensure_level` without overriding an explicit env setting that asks
for *more* output (e.g. ``DEBUG``).

This replaces the ad-hoc ``print``/``verbose`` output the experiment
runner used to produce — pool workers configure their own handler on
first use (fork inherits the parent's, spawn re-imports), so worker-side
messages are structured too.

Correlation
-----------
Every record additionally carries a **correlation id** — the token the
service mints at ``POST /submit`` and threads through job → work unit →
pool worker → ``RunSpec`` annotations.  It rides a :mod:`contextvars`
variable (so each dispatcher thread and each pool worker tags only its
own records) and lands in the line via :class:`CorrelationFilter` as a
``corr=<id>`` suffix on the logger name field: ``-`` when no request
context is active, so batch-runner output is unchanged apart from the
constant field.  ``grep <corr>`` across the service log, the journal and
a flight record then reconstructs one unit's full lifecycle.
"""

from __future__ import annotations

import contextlib
import contextvars
import logging
import os

_ROOT_NAME = "repro"
_FORMAT = (
    "%(asctime)s %(process)d %(name)s %(levelname)s corr=%(corr)s "
    "%(message)s"
)
_DATE_FORMAT = "%H:%M:%S"
_configured = False

#: The active correlation id for this thread/task (``None`` outside any
#: correlated request — rendered as ``-``).
_correlation: contextvars.ContextVar = contextvars.ContextVar(
    "repro_correlation", default=None
)


def current_correlation():
    """The correlation id bound to this context, or ``None``."""
    return _correlation.get()


@contextlib.contextmanager
def correlation_scope(corr):
    """Bind a correlation id for the duration of a ``with`` block."""
    token = _correlation.set(corr)
    try:
        yield corr
    finally:
        _correlation.reset(token)


class CorrelationFilter(logging.Filter):
    """Stamp every record with the context's correlation id.

    Installed on the shared ``repro`` handler; also importable for
    callers shipping repro records into their own handlers.  A filter
    (not a formatter) so the ``corr`` attribute exists on the record
    itself — flight recorders and test capture read it structurally.
    """

    def filter(self, record: logging.LogRecord) -> bool:
        if not hasattr(record, "corr") or record.corr is None:
            corr = _correlation.get()
            record.corr = corr if corr else "-"
        return True


def level_from_env(default: int = logging.WARNING) -> int:
    """Resolve ``REPRO_LOG_LEVEL`` (a name like ``debug`` or a number)
    into a logging level; unparseable values fall back to ``default``."""
    raw = os.environ.get("REPRO_LOG_LEVEL", "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        pass
    resolved = logging.getLevelName(raw.upper())
    if isinstance(resolved, int):
        return resolved
    return default


def get_logger(name: str = _ROOT_NAME) -> logging.Logger:
    """Return a logger under the ``repro`` tree, configuring the shared
    handler + ``REPRO_LOG_LEVEL`` threshold on first use."""
    global _configured
    root = logging.getLogger(_ROOT_NAME)
    if not _configured:
        _configured = True
        if not root.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(logging.Formatter(_FORMAT, _DATE_FORMAT))
            handler.addFilter(CorrelationFilter())
            root.addHandler(handler)
        root.propagate = False
        root.setLevel(level_from_env())
    if name == _ROOT_NAME:
        return root
    if not name.startswith(_ROOT_NAME + "."):
        name = f"{_ROOT_NAME}.{name}"
    return logging.getLogger(name)


def ensure_level(level: int) -> None:
    """Lower the ``repro`` threshold to ``level`` if it is currently
    stricter (never raises it — an explicit ``REPRO_LOG_LEVEL=DEBUG``
    stays in force when a ``verbose=True`` call site asks for INFO)."""
    root = get_logger()
    if root.level == logging.NOTSET or root.level > level:
        root.setLevel(level)


def reset_for_tests() -> None:
    """Drop the cached configuration so a test can re-run the env-driven
    setup from scratch (handlers are removed as well)."""
    global _configured
    _configured = False
    root = logging.getLogger(_ROOT_NAME)
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
