"""Stdlib-only HTTP frontend for the campaign service.

A :class:`ThreadingHTTPServer` (one thread per connection, daemonized)
over five routes:

==========================  ==============================================
``POST /submit``            admit a job — ``202 {"job": ...,
                            "correlation": ...}`` or ``429`` with the
                            structured
                            :class:`~repro.service.admission.Overloaded`
                            payload and a ``Retry-After`` header
``GET /status/<job>``       job summary (state, completed/failed counts)
``GET /stream/<job>``       NDJSON event stream, one line per unit result
                            as it completes, terminated by the ``done``
                            event — live result streaming, not
                            batch-at-end; SLO burn/recovery events ride
                            the same stream.  Both job routes answer
                            every unfinished job and the newest
                            ``FINISHED_JOB_WINDOW`` finished ones (see
                            :mod:`~repro.service.scheduler`); an older
                            finished job answers ``404``
``GET /health/live``        200 while the dispatcher threads run
``GET /health/ready``       200 with queue headroom, 503 when saturated
                            or draining (load balancers stop routing);
                            the body's ``reasons`` list names every
                            failing condition
``GET /stats``              counter snapshot (service + admission stat
                            groups) plus per-second event counts
``GET /metrics``            OpenMetrics/Prometheus text exposition
                            (:mod:`repro.telemetry.metrics`) — counters
                            reconcile with ``/stats`` by construction
``GET /slo``                current SLO evaluations with burn rates
==========================  ==============================================

The submit body is::

    {"client": "alice", "priority": 3,
     "specs": [{"scheme": "disco", "workload": "x264", ...}, ...],
     "campaigns": [{"spec": {...}, "plan": {"seed": 1, ...}}, ...]}

Any other top-level key, like an unknown ``RunSpec`` field, is answered
``400`` naming it.

Responses are always JSON; overload answers are bounded O(1) work so a
saturated service still sheds within milliseconds, never hangs a client.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple

from repro.service.admission import Overloaded
from repro.service.scheduler import CampaignService
from repro.telemetry.log import get_logger
from repro.telemetry.metrics import CONTENT_TYPE, build_service_registry

_LOG = get_logger("repro.service.http")

#: Streams give up after this much total wall time on a wedged job.
STREAM_TIMEOUT = 600.0

#: The top-level keys of a submit body; any other key is a client error
#: (a typo'd ``priorty`` must not queue the job at the default priority).
_SUBMIT_KEYS = {"client", "priority", "specs", "campaigns"}


class ServiceHTTPServer(ThreadingHTTPServer):
    """The listener; holds the :class:`CampaignService` for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: CampaignService):
        super().__init__(address, _Handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0 + Connection: close keeps the stdlib plumbing simple: no
    # chunked framing needed for streams, the socket close is the
    # terminator and urllib consumes it natively.
    protocol_version = "HTTP/1.0"

    # -- plumbing ------------------------------------------------------------
    @property
    def service(self) -> CampaignService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        _LOG.debug("%s %s", self.address_string(), format % args)

    def _send_json(
        self, code: int, payload: dict, retry_after: Optional[float] = None
    ) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.3f}")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        raw = self.rfile.read(length)
        payload = json.loads(raw)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    # -- routes --------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        if self.path.rstrip("/") != "/submit":
            self._send_json(404, {"error": "not_found", "path": self.path})
            return
        try:
            body = self._read_body()
            unknown = sorted(set(body) - _SUBMIT_KEYS)
            if unknown:
                raise ValueError(f"unknown submit keys: {', '.join(unknown)}")
            result = self.service.submit(
                specs=body.get("specs") or (),
                campaigns=body.get("campaigns") or (),
                client=str(body.get("client") or "anon"),
                priority=int(body.get("priority", 5)),
            )
        except (ValueError, TypeError) as exc:
            self._send_json(400, {"error": "bad_request", "detail": str(exc)})
            return
        if isinstance(result, Overloaded):
            self._send_json(
                429, result.to_dict(), retry_after=result.retry_after
            )
            return
        self._send_json(
            202,
            {
                "job": result.job_id,
                "units": result.total,
                "correlation": result.correlation,
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.rstrip("/")
        if path == "/health/live":
            alive = self.service.live()
            self._send_json(200 if alive else 503, {"live": alive})
        elif path == "/health/ready":
            ready, detail = self.service.ready()
            detail["ready"] = ready
            self._send_json(200 if ready else 503, detail)
        elif path == "/stats":
            self._send_json(200, self._stats_payload())
        elif path == "/metrics":
            self._send_metrics()
        elif path == "/slo":
            self._send_json(
                200,
                {
                    "slo": [
                        status.to_dict()
                        for status in self.service.evaluate_slos()
                    ]
                },
            )
        elif path.startswith("/status/"):
            self._job_route(path[len("/status/"):], stream=False)
        elif path.startswith("/stream/"):
            self._job_route(path[len("/stream/"):], stream=True)
        else:
            self._send_json(404, {"error": "not_found", "path": self.path})

    def _send_metrics(self) -> None:
        """The OpenMetrics exposition.

        The registry is rebuilt from one :class:`StatsRegistry` snapshot
        per scrape, so concurrent scrapes each see a complete,
        internally consistent document (and counters stay monotonic
        because the underlying stats only ever increase).
        """
        body = build_service_registry(self.service).render().encode()
        self.send_response(200)
        self.send_header("Content-Type", CONTENT_TYPE)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _stats_payload(self) -> dict:
        service = self.service
        return {
            "counters": service.snapshot().to_dict(),
            "queue_depth": service.queue_depth(),
            "drain_rate_per_s": round(service.drain_rate(), 4),
            "shed_rate_per_s": round(service.events.rate("shed", 60.0), 4),
            "queue_age_ms_mean_60s": round(
                service.events.mean("queue_age_ms", 60.0), 3
            ),
            "series": service.events.series(),
        }

    def _job_route(self, job_id: str, stream: bool) -> None:
        job = self.service.jobs.get(job_id)
        if job is None:
            self._send_json(404, {"error": "unknown_job", "job": job_id})
            return
        if not stream:
            self._send_json(200, job.snapshot())
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for event in job.stream(timeout=STREAM_TIMEOUT):
                self.wfile.write((json.dumps(event) + "\n").encode())
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # the consumer went away; nothing to clean up


def serve(
    service: CampaignService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind and start serving in a daemon thread; returns the server
    (``server.server_address`` carries the actual port for ``port=0``)."""
    server = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server
