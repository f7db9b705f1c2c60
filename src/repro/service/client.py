"""A thin stdlib client for the campaign service HTTP API.

Used by the worked examples, the chaos drill and the tests; also a
reasonable template for real clients: submit, honor ``Overloaded``
sheds by sleeping the ``retry_after`` hint, and stream results as they
complete.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def _error_body(exc: urllib.error.HTTPError) -> Dict:
    """The service's JSON body of an error answer (``{}`` if none)."""
    try:
        return json.loads(exc.read() or b"{}")
    except ValueError:
        return {}


class OverloadedError(RuntimeError):
    """The service shed this submission (HTTP 429)."""

    def __init__(self, payload: Dict):
        self.payload = payload
        self.reason = payload.get("reason", "overloaded")
        self.retry_after = float(payload.get("retry_after", 1.0))
        super().__init__(
            f"overloaded ({self.reason}); retry after {self.retry_after}s"
        )


class ServiceClient:
    """Synchronous JSON-over-HTTP client."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport -----------------------------------------------------------
    def _request(
        self, path: str, body: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        url = f"{self.base_url}{path}"
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            url,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, json.loads(response.read() or b"{}")
        except urllib.error.HTTPError as exc:
            return exc.code, _error_body(exc)

    # -- API -----------------------------------------------------------------
    def submit(
        self,
        specs: Sequence[Dict] = (),
        campaigns: Sequence[Dict] = (),
        client: str = "anon",
        priority: int = 5,
    ) -> str:
        """Submit a job; returns the job id or raises
        :class:`OverloadedError` on a shed (other errors raise
        ``RuntimeError``)."""
        code, payload = self._request(
            "/submit",
            {
                "client": client,
                "priority": priority,
                "specs": list(specs),
                "campaigns": list(campaigns),
            },
        )
        if code == 202:
            return payload["job"]
        if code == 429:
            raise OverloadedError(payload)
        raise RuntimeError(f"submit failed ({code}): {payload}")

    def submit_with_retry(
        self,
        specs: Sequence[Dict] = (),
        campaigns: Sequence[Dict] = (),
        client: str = "anon",
        priority: int = 5,
        attempts: int = 10,
    ) -> str:
        """The polite-client loop: sleep each shed's ``retry_after``."""
        last: Optional[OverloadedError] = None
        for _ in range(attempts):
            try:
                return self.submit(specs, campaigns, client, priority)
            except OverloadedError as exc:
                last = exc
                time.sleep(min(exc.retry_after, 10.0))
        raise last if last is not None else RuntimeError("submit gave up")

    def status(self, job_id: str) -> Dict:
        code, payload = self._request(f"/status/{job_id}")
        if code != 200:
            raise RuntimeError(f"status failed ({code}): {payload}")
        return payload

    def stream(self, job_id: str) -> Iterator[Dict]:
        """Yield the job's NDJSON events as the service emits them; an
        unknown or retired job raises ``RuntimeError`` naming the HTTP
        code and the service's JSON body."""
        url = f"{self.base_url}/stream/{job_id}"
        try:
            response = urllib.request.urlopen(url, timeout=self.timeout)
        except urllib.error.HTTPError as exc:
            raise RuntimeError(
                f"stream failed ({exc.code}): {_error_body(exc)}"
            ) from None
        with response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def wait(self, job_id: str) -> Tuple[List[Dict], List[Dict]]:
        """Stream to completion; returns ``(results, failures)``."""
        results: List[Dict] = []
        failures: List[Dict] = []
        for event in self.stream(job_id):
            if event.get("type") == "result":
                results.append(event)
            elif event.get("type") == "failed":
                failures.append(event)
            elif event.get("type") == "timeout":
                raise TimeoutError(f"job {job_id} stream timed out")
        return results, failures

    def health(self, probe: str = "ready") -> Tuple[bool, Dict]:
        code, payload = self._request(f"/health/{probe}")
        return code == 200, payload

    def stats(self) -> Dict:
        code, payload = self._request("/stats")
        if code != 200:
            raise RuntimeError(f"stats failed ({code}): {payload}")
        return payload
