"""The always-on campaign service (see DESIGN.md §4g).

Public surface:

- :class:`~repro.service.scheduler.CampaignService` — the supervised
  scheduler (one priority queue, retries, quarantine, result
  streaming);
- :class:`~repro.service.admission.AdmissionController` /
  :class:`~repro.service.admission.Overloaded` — admission control and
  the structured shed response;
- :class:`~repro.service.jobs.Job` — a submission and its event stream;
- :func:`~repro.service.http.serve` /
  :class:`~repro.service.http.ServiceHTTPServer` — the stdlib HTTP
  frontend (``python -m repro.service`` runs it);
- :class:`~repro.service.client.ServiceClient` — a thin client.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionStats,
    Overloaded,
    TokenBucket,
)
from repro.service.client import OverloadedError, ServiceClient
from repro.service.http import ServiceHTTPServer, serve
from repro.service.jobs import Job, WorkUnit, spec_from_payload
from repro.service.scheduler import CampaignService, ServiceStats

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "CampaignService",
    "Job",
    "Overloaded",
    "OverloadedError",
    "ServiceClient",
    "ServiceHTTPServer",
    "ServiceStats",
    "TokenBucket",
    "WorkUnit",
    "serve",
    "spec_from_payload",
]
