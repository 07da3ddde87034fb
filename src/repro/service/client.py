"""Small stdlib HTTP client for the allocation service.

Mirrors the server's endpoints.  Problems and settings are serialised with
the same workload serialization layer the server parses with, and the
returned outcome documents can be re-bound to local problem objects::

    client = ServiceClient("http://127.0.0.1:8000")
    response = client.solve(problem)                 # raw JSON document
    outcome = client.solve_outcome(problem)          # bound SolveOutcome

Retry & backoff
---------------
Transient failures are retried with capped exponential backoff plus
deterministic jitter (:class:`RetryPolicy`): 429 (queue full) and 503
(overload shedding) honour the server's ``Retry-After`` hint, and
connection errors -- a restarting server -- are retried the same way, so a
``wait_for_job`` poll loop rides straight through a crash/recovery cycle.
Retrying is safe because the service is idempotent by fingerprint: a solve
re-sent after an ambiguous failure dedupes onto the cached outcome instead
of redoing work.  Everything non-transient (4xx validation errors, 500s)
still surfaces immediately.  Per-client retry counters live in
:attr:`ServiceClient.retry_stats`.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome
from .batch import (
    SolveRequest,
    json_with_array,
    loads_batch,
    map_distinct,
    request_to_dict,
    requests_to_documents,
)

__all__ = [
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "request_to_dict",  # re-exported; lives in .batch since the WAL journals it
]


class ServiceError(RuntimeError):
    """Raised when the service answers with an error document or bad status.

    ``status`` carries the HTTP status code when one was received (``None``
    for connection-level failures); ``retry_after_seconds`` echoes the
    server's ``Retry-After`` hint on 429/503 answers.
    """

    def __init__(
        self,
        message: str,
        status: int | None = None,
        retry_after_seconds: float | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.retry_after_seconds = retry_after_seconds


#: HTTP statuses that signal "try again later", never "you are wrong".
RETRYABLE_STATUSES = (429, 503)

#: Failures that mean "the server is unreachable or died mid-request" -- all
#: retryable.  ``urlopen`` wraps connect-time failures in ``URLError``, but a
#: server killed while streaming its response surfaces raw
#: ``http.client.RemoteDisconnected`` / ``ConnectionResetError`` instead.
CONNECTION_ERRORS = (urllib.error.URLError, http.client.HTTPException, ConnectionError)


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``n`` (0-based) sleeps ``min(cap, base * 2**n)`` seconds,
    stretched by up to ``jitter`` (a fraction) drawn from a seeded RNG,
    and never less than the server's ``Retry-After`` (itself capped by
    ``retry_after_cap_seconds`` so a confused server cannot park a client
    for minutes).  ``retries=0`` disables retrying entirely.
    """

    retries: int = 3
    backoff_base_seconds: float = 0.05
    backoff_cap_seconds: float = 5.0
    retry_after_cap_seconds: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_base_seconds <= 0 or self.backoff_cap_seconds <= 0:
            raise ValueError("backoff timings must be positive")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def delay_seconds(
        self, attempt: int, retry_after: float | None, rng: random.Random
    ) -> float:
        delay = min(self.backoff_cap_seconds, self.backoff_base_seconds * 2.0**attempt)
        if retry_after is not None:
            delay = max(delay, min(retry_after, self.retry_after_cap_seconds))
        return delay * (1.0 + self.jitter * rng.random())


class _Retryable(Exception):
    """Internal transport signal: wraps a ServiceError worth retrying."""

    def __init__(self, error: ServiceError, reason: str):
        super().__init__(str(error))
        self.error = error
        self.reason = reason  # "429", "503" or "connection"


def _parse_retry_after(headers: Any) -> float | None:
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        return max(0.0, float(value))
    except (TypeError, ValueError):
        return None


def _bind_outcomes(
    documents: Sequence[Mapping[str, Any]], requests: Sequence[SolveRequest]
) -> list[SolveOutcome]:
    """Bind outcome documents to their requests' problems, once per distinct
    (document, problem) pair; duplicates share one :class:`SolveOutcome`."""
    pairs = list(zip(documents, requests))
    return map_distinct(
        pairs,
        lambda pair: SolveOutcome.from_dict(pair[0], problem=pair[1].problem),
        [(id(document), id(request.problem)) for document, request in pairs],
    )


def _batch_body(head: dict[str, Any], requests: Sequence[SolveRequest]) -> str:
    """``json.dumps({**head, "requests": [request_to_dict(r) ...]})``, byte
    for byte, serialising and encoding each distinct request once."""
    texts = map_distinct(requests_to_documents(requests), json.dumps)
    return json_with_array(head, "requests", texts)


class ServiceClient:
    """Talk to a running allocation service over HTTP."""

    def __init__(
        self,
        base_url: str,
        timeout_seconds: float = 60.0,
        retry_policy: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_seconds = timeout_seconds
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self._sleep = sleep
        self._rng = random.Random(self.retry_policy.seed)
        #: Cumulative transport retry counters (read by the load generator).
        self.retry_stats: dict[str, float] = {
            "attempts": 0,
            "retries": 0,
            "rejected_429": 0,
            "rejected_503": 0,
            "connection_errors": 0,
            "backoff_seconds": 0.0,
        }

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _with_retries(self, attempt_once: Callable[[], Any]) -> Any:
        """Run one transport attempt under the retry policy."""
        attempt = 0
        while True:
            self.retry_stats["attempts"] += 1
            try:
                return attempt_once()
            except _Retryable as failure:
                key = {
                    "429": "rejected_429",
                    "503": "rejected_503",
                }.get(failure.reason, "connection_errors")
                self.retry_stats[key] += 1
                if attempt >= self.retry_policy.retries:
                    raise failure.error from failure.error.__cause__
                delay = self.retry_policy.delay_seconds(
                    attempt, failure.error.retry_after_seconds, self._rng
                )
                self.retry_stats["retries"] += 1
                self.retry_stats["backoff_seconds"] += delay
                self._sleep(delay)
                attempt += 1

    def _request(
        self,
        path: str,
        payload: Mapping[str, Any] | str | None = None,
        method: str | None = None,
    ) -> dict[str, Any]:
        """``payload`` is a JSON document, or its already encoded text."""
        url = f"{self.base_url}{path}"
        if payload is not None and not isinstance(payload, str):
            payload = json.dumps(payload)
        data = payload.encode("utf-8") if payload is not None else None

        def attempt_once() -> dict[str, Any]:
            request = urllib.request.Request(
                url,
                data=data,
                headers={"Content-Type": "application/json"} if data else {},
                method=method,
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout_seconds) as response:
                    document = loads_batch(response.read().decode("utf-8"), "outcomes")[0]
            except urllib.error.HTTPError as error:
                try:
                    message = json.loads(error.read().decode("utf-8")).get("error", str(error))
                except Exception:
                    message = str(error)
                service_error = ServiceError(
                    f"{path}: {message}",
                    status=error.code,
                    retry_after_seconds=_parse_retry_after(error.headers),
                )
                service_error.__cause__ = error
                if error.code in RETRYABLE_STATUSES:
                    raise _Retryable(service_error, str(error.code)) from error
                raise service_error from error
            except CONNECTION_ERRORS as error:
                reason = getattr(error, "reason", error)
                service_error = ServiceError(f"cannot reach {url}: {reason}")
                service_error.__cause__ = error
                raise _Retryable(service_error, "connection") from error
            if isinstance(document, Mapping) and "error" in document:
                raise ServiceError(str(document["error"]))
            return document

        return self._with_retries(attempt_once)

    def _request_text(self, path: str) -> str:
        """GET a non-JSON endpoint (the Prometheus ``/metrics`` text)."""
        url = f"{self.base_url}{path}"

        def attempt_once() -> str:
            try:
                with urllib.request.urlopen(url, timeout=self.timeout_seconds) as response:
                    return response.read().decode("utf-8")
            except urllib.error.HTTPError as error:
                service_error = ServiceError(
                    f"{path}: {error}",
                    status=error.code,
                    retry_after_seconds=_parse_retry_after(error.headers),
                )
                service_error.__cause__ = error
                if error.code in RETRYABLE_STATUSES:
                    raise _Retryable(service_error, str(error.code)) from error
                raise service_error from error
            except CONNECTION_ERRORS as error:
                reason = getattr(error, "reason", error)
                service_error = ServiceError(f"cannot reach {url}: {reason}")
                service_error.__cause__ = error
                raise _Retryable(service_error, "connection") from error

        return self._with_retries(attempt_once)

    # ------------------------------------------------------------------ #
    # Endpoints
    # ------------------------------------------------------------------ #
    def solve(
        self,
        problem: AllocationProblem,
        method: str = "gp+a",
        heuristic_settings: HeuristicSettings | None = None,
        exact_settings: ExactSettings | None = None,
    ) -> dict[str, Any]:
        """POST /solve; returns the raw response document."""
        request = SolveRequest(
            problem=problem,
            method=method,
            heuristic_settings=heuristic_settings,
            exact_settings=exact_settings,
        )
        return self._request("/solve", request_to_dict(request))

    def solve_outcome(
        self,
        problem: AllocationProblem,
        method: str = "gp+a",
        heuristic_settings: HeuristicSettings | None = None,
        exact_settings: ExactSettings | None = None,
    ) -> SolveOutcome:
        """POST /solve and bind the returned outcome to ``problem``."""
        response = self.solve(problem, method, heuristic_settings, exact_settings)
        return SolveOutcome.from_dict(response["outcome"], problem=problem)

    def solve_batch(self, requests: Sequence[SolveRequest]) -> dict[str, Any]:
        """POST /solve_batch; returns the raw response document.

        Duplicate outcome documents in its ``outcomes`` list are one shared
        dict: treat them as read-only, or copy before editing one."""
        return self._request("/solve_batch", _batch_body({}, requests))

    # ------------------------------------------------------------------ #
    # Async batches
    # ------------------------------------------------------------------ #
    def solve_batch_async(self, requests: Sequence[SolveRequest]) -> dict[str, Any]:
        """POST /solve_batch with ``mode=async``; returns the queued job
        document (poll :meth:`job` with its ``job_id``)."""
        return self._request("/solve_batch", _batch_body({"mode": "async"}, requests))

    def job(self, job_id: str) -> dict[str, Any]:
        """GET /jobs/<id>; raises :class:`ServiceError` for unknown ids."""
        return self._request(f"/jobs/{job_id}")

    def jobs(self) -> list[dict[str, Any]]:
        """GET /jobs; summaries of every retained async job."""
        return self._request("/jobs")["jobs"]

    def wait_for_job(
        self,
        job_id: str,
        timeout_seconds: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> dict[str, Any]:
        """Poll ``/jobs/<id>`` until the job is ``done`` or ``failed``."""
        deadline = time.monotonic() + timeout_seconds
        while True:
            document = self.job(job_id)
            if document["status"] in ("done", "failed"):
                return document
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {document['status']} after {timeout_seconds} s"
                )
            time.sleep(poll_seconds)

    def solve_batch_async_outcomes(
        self,
        requests: Sequence[SolveRequest],
        timeout_seconds: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> tuple[list[SolveOutcome], dict[str, Any]]:
        """Submit async, poll to completion, bind outcomes to the requests.

        Duplicate outcome documents bound to the same problem object come
        back as one shared :class:`SolveOutcome`, as ``solve_batch`` in
        process returns them."""
        job_id = self.solve_batch_async(requests)["job_id"]
        document = self.wait_for_job(job_id, timeout_seconds, poll_seconds)
        if document["status"] != "done":
            raise ServiceError(f"job {job_id} failed: {document.get('error', 'unknown')}")
        return _bind_outcomes(document["outcomes"], requests), document["report"]

    def solve_batch_outcomes(
        self, requests: Sequence[SolveRequest]
    ) -> tuple[list[SolveOutcome], dict[str, Any]]:
        """POST /solve_batch and bind each outcome to its request problem.

        Duplicate outcome documents bound to the same problem object come
        back as one shared :class:`SolveOutcome`, as ``solve_batch`` in
        process returns them."""
        response = self.solve_batch(requests)
        return _bind_outcomes(response["outcomes"], requests), response["report"]

    # ------------------------------------------------------------------ #
    # Fleet endpoints
    # ------------------------------------------------------------------ #
    def fleet_allocate(
        self, fleet_document: Mapping[str, Any], mode: str = "heuristic"
    ) -> dict[str, Any]:
        """POST /fleet/allocate; ``fleet_document`` is a ``fleet_to_dict``
        wire document.  Returns the raw response (allocation + metadata)."""
        return self._request(
            "/fleet/allocate", {"fleet": dict(fleet_document), "mode": mode}
        )

    def fleet_arrival(
        self, tenant_document: Mapping[str, Any], mode: str = "heuristic"
    ) -> dict[str, Any]:
        """POST /fleet/tenants (tenant arrival + fleet re-carve)."""
        return self._request(
            "/fleet/tenants", {"tenant": dict(tenant_document), "mode": mode}
        )

    def fleet_departure(self, tenant_id: str) -> dict[str, Any]:
        """DELETE /fleet/tenants/<id> (departure + re-carve of the rest)."""
        return self._request(f"/fleet/tenants/{tenant_id}", method="DELETE")

    def health(self) -> dict[str, Any]:
        """GET /health."""
        return self._request("/health")

    def stats(self) -> dict[str, Any]:
        """GET /stats."""
        return self._request("/stats")

    def metrics(self) -> str:
        """GET /metrics; the raw Prometheus text exposition."""
        return self._request_text("/metrics")

    def trace(self, fingerprint: str) -> dict[str, Any]:
        """GET /trace/<fingerprint>; the retained span tree of one solve."""
        return self._request(f"/trace/{fingerprint}")
