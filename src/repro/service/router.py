"""The routing front-end of the multi-process serving topology.

One :class:`RouterService` sits in front of a :class:`~repro.service.pool.
WorkerPool` and is served by the same front door as a single-process
allocation server (:mod:`repro.service.frontdoor`), so it answers every
route of that API and every existing client works unchanged.  The
``/fleet`` routes are forwarded verbatim to the worker of group 0
(:data:`FLEET_GROUP`), which owns the fleet state.  What it adds:

* **ownership routing** -- each request document's canonical fingerprint
  is mapped onto a shard group by the consistent hash ring of
  :mod:`repro.service.hashing`; ``/solve`` forwards the raw body bytes to
  the owning worker (no re-serialisation), batches are split by ring
  ownership, fanned out concurrently, and the per-worker responses merged
  back **in request order**;
* **composite async jobs** -- an async batch becomes one router job id
  (``rjob-...``) backed by one worker job per owning group; polling the
  router id polls the parts and merges status/report/outcomes, so a
  client cannot tell it is talking to N processes;
* **fleet observability** -- ``/stats`` sums every counter section across
  workers (and nests the per-worker documents), ``/metrics`` merges the
  workers' Prometheus expositions into one valid exposition with a
  ``worker`` label on every sample;
* **unavailability as backpressure** -- a request whose owning worker is
  down (crashed and not yet replayed/restarted) is answered ``503`` +
  ``Retry-After``, counted in the same admission counters the
  single-process server uses, so clients ride through a worker crash with
  their existing retry policy;
* **online resize** -- ``POST /admin/resize`` starts workers for new
  groups and swaps the ring only once they are healthy; surviving groups
  keep their warm stores, and only the ~1/(N+1) of keys the ring moves go
  cold (the hashing module's minimal-movement guarantee).

Fingerprinting a request requires decoding the problem document, which is
the expensive part of the submit path.  The router decodes through the
same per-distinct-document path and bounded text -> request memo as a
single-process server (:func:`~repro.service.batch.requests_from_documents`),
so duplicate-heavy traffic (the warm-replay regime this topology exists
for) decodes each distinct request once and routes every repeat with a
dictionary hit.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, Mapping, Sequence

from .. import __version__
from ..obs.metrics import MetricsRegistry
from .batch import requests_from_documents
from .frontdoor import (
    JSON,
    BackpressureError,
    FrontDoorHandler,
    HTTPError,
    HTTPRoutes,
    Reply,
    Request,
    json_reply,
    section,
    start_server,
)
from .hashing import DEFAULT_REPLICAS, HashRing, ring
from .pool import WorkerPool
from .store import CacheStats

#: Retry hint handed to clients whose owning worker is down: the pool's
#: restart-and-replay cycle is sub-second for small WALs, so the floor.
WORKER_DOWN_RETRY_AFTER_SECONDS = 1.0

#: The shard group whose worker owns the fleet state; every ``/fleet``
#: call is forwarded to it.  Group 0 always exists: the pool never shrinks.
FLEET_GROUP = 0

#: Report fields summed across per-worker batch reports (``runtime_seconds``
#: is a max -- the parts ran concurrently -- and ``solver_counters`` is a
#: dict merge).
_REPORT_SUM_FIELDS = (
    "total",
    "unique",
    "duplicates",
    "memory_hits",
    "disk_hits",
    "solves",
)


class WorkerUnavailableError(BackpressureError):
    """The owning worker of a request is down or unreachable (HTTP 503)."""

    def __init__(self, group: int):
        super().__init__(
            503,
            WORKER_DOWN_RETRY_AFTER_SECONDS,
            f"shard group {group} is unavailable (worker down or restarting); "
            "retry later",
        )
        self.group = group


# --------------------------------------------------------------------------- #
# Prometheus merging
# --------------------------------------------------------------------------- #
def inject_label(sample_line: str, name: str, value: str) -> str:
    """Add one label to a Prometheus sample line (prepended to existing)."""
    brace = sample_line.find("{")
    space = sample_line.find(" ")
    if brace != -1 and (space == -1 or brace < space):
        return f'{sample_line[: brace + 1]}{name}="{value}",{sample_line[brace + 1 :]}'
    return f'{sample_line[:space]}{{{name}="{value}"}}{sample_line[space:]}'


def merge_prometheus(expositions: "Iterable[tuple[str, str]]") -> str:
    """Merge ``(worker_label, exposition_text)`` pairs into one exposition.

    Every family's ``HELP``/``TYPE`` header is emitted exactly once (first
    writer wins) with all of its samples contiguous below it -- the shape
    :func:`repro.obs.metrics.validate_prometheus_text` enforces -- and each
    sample gains a ``worker="<label>"`` label identifying its process.
    """
    order: list[str] = []
    families: dict[str, dict[str, Any]] = {}

    def family(name: str) -> dict[str, Any]:
        entry = families.get(name)
        if entry is None:
            entry = {"help": None, "type": None, "samples": []}
            families[name] = entry
            order.append(name)
        return entry

    for label, text in expositions:
        current: str | None = None
        for line in text.splitlines():
            if not line.strip():
                continue
            if line.startswith("# HELP "):
                name = line.split(" ", 3)[2]
                entry = family(name)
                if entry["help"] is None:
                    entry["help"] = line
                current = name
            elif line.startswith("# TYPE "):
                name = line.split(" ", 3)[2]
                entry = family(name)
                if entry["type"] is None:
                    entry["type"] = line
                current = name
            elif line.startswith("#"):
                continue
            else:
                # Expositions emit samples inside their family block, so the
                # running header names the family even for suffixed samples
                # (histogram _bucket/_sum/_count).
                sample_name = line.split("{", 1)[0].split(" ", 1)[0]
                owner = (
                    current
                    if current is not None and sample_name.startswith(current)
                    else sample_name
                )
                family(owner)["samples"].append(inject_label(line, "worker", label))
    lines: list[str] = []
    for name in order:
        entry = families[name]
        if entry["help"] is not None:
            lines.append(entry["help"])
        if entry["type"] is not None:
            lines.append(entry["type"])
        lines.extend(entry["samples"])
    return "\n".join(lines) + "\n" if lines else ""


# --------------------------------------------------------------------------- #
# Composite async jobs
# --------------------------------------------------------------------------- #
class RouterJobPart:
    """One group's slice of a composite job.

    Keeps the slice's request *documents* as well as its worker job id: a
    worker that crashed **after** finishing the part (and so never replays
    it from its WAL) answers 404 for the old id once restarted, and the
    router re-submits the slice from these documents -- the deduping batch
    path answers it from the result store, so the retry costs lookups, not
    solves.
    """

    __slots__ = ("group", "job_id", "indices", "documents")

    def __init__(
        self,
        group: int,
        job_id: str,
        indices: "list[int]",
        documents: "list[Mapping[str, Any]]",
    ):
        self.group = group
        self.job_id = job_id
        self.indices = indices
        self.documents = documents


class RouterJob:
    """One async batch split across workers: the id mapping + index plan."""

    __slots__ = ("id", "created_unix", "total", "parts", "lock")

    def __init__(
        self,
        job_id: str,
        created_unix: float,
        total: int,
        parts: "list[RouterJobPart]",
    ):
        self.id = job_id
        self.created_unix = created_unix
        self.total = total
        self.parts = parts
        #: Serialises part re-submission so concurrent polls of the same
        #: composite job cannot double-resubmit a lost part.
        self.lock = threading.Lock()


class RouterService(HTTPRoutes):
    """Route the allocation-service HTTP surface across a worker pool.

    Parameters
    ----------
    pool:
        The :class:`~repro.service.pool.WorkerPool` to route over.  The
        router owns it by default (``close()`` drains the workers); pass
        ``own_pool=False`` when the caller manages the pool's lifetime.
    replicas:
        Virtual nodes per group on the hash ring.
    job_retention:
        Composite async jobs retained for polling (oldest pruned first;
        the underlying worker jobs are durable regardless).
    proxy_timeout_seconds:
        Per-request timeout on the router->worker hop.
    """

    def __init__(
        self,
        pool: WorkerPool,
        replicas: int = DEFAULT_REPLICAS,
        job_retention: int = 256,
        proxy_timeout_seconds: float = 120.0,
        own_pool: bool = True,
    ):
        self.pool = pool
        self.own_pool = own_pool
        self.replicas = replicas
        self.proxy_timeout_seconds = proxy_timeout_seconds
        self.started_unix = time.time()
        self._ring = ring(pool.num_groups, replicas)
        self._ring_lock = threading.Lock()
        self._resize_lock = threading.Lock()
        self._memo_counts = {"hits": 0, "misses": 0}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._resizes = 0
        self._rejected: dict[str, int] = {"429": 0, "503": 0}
        self._part_resubmits = 0
        self._jobs: "OrderedDict[str, RouterJob]" = OrderedDict()
        self._next_job = 0
        self.job_retention = job_retention
        self._fanout = ThreadPoolExecutor(
            max_workers=16, thread_name_prefix="repro-router-fanout"
        )
        self.metrics = MetricsRegistry()
        self._http_requests_total = self.metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method and status code.",
            label_names=("method", "status"),
        )
        self._admission_rejected_total = self.metrics.counter(
            "repro_admission_rejected_total",
            "Requests refused for backpressure, by HTTP status code.",
            label_names=("code",),
        )
        self._proxied_total = self.metrics.counter(
            "repro_router_proxied_total",
            "Requests proxied to workers, by shard group.",
            label_names=("group",),
        )
        self._routing_memo_hits = self.metrics.counter(
            "repro_router_fingerprint_memo_hits_total",
            "Routing fingerprints answered from the document memo.",
        )
        self._counter_part_resubmits = self.metrics.counter(
            "repro_router_part_resubmits_total",
            "Composite-job parts re-submitted after a worker lost the job id.",
        )
        self._groups_gauge = self.metrics.gauge(
            "repro_router_groups", "Shard groups on the hash ring."
        )
        self._healthy_gauge = self.metrics.gauge(
            "repro_router_healthy_groups", "Shard groups with a live worker."
        )

    # ------------------------------------------------------------------ #
    # Ring / routing
    # ------------------------------------------------------------------ #
    @property
    def ring(self) -> HashRing:
        with self._ring_lock:
            return self._ring

    def group_of(self, fingerprint: str) -> int:
        return self.ring.group_of(fingerprint)

    def fingerprints_of(
        self, documents: Sequence[Any], texts: Sequence[str] | None = None
    ) -> list[str]:
        """Routing fingerprints of request documents (``texts``: their
        source texts, see :func:`~repro.service.batch.loads_batch`)."""
        counts: dict[str, int] = {}
        requests = requests_from_documents(documents, texts, counts)
        with self._lock:
            for name, count in counts.items():
                self._memo_counts[name] += count
        self._routing_memo_hits.inc(counts.get("hits", 0))
        return [request.fingerprint() for request in requests]

    def resize(self, num_groups: int) -> dict[str, Any]:
        """Grow the pool to ``num_groups`` shard groups, online.

        Each new worker is spawned and *healthy* before the ring advances
        to include it, so no request is ever routed at a group that is not
        serving; shrinking is not supported (it would orphan owned keys).
        """
        with self._resize_lock:
            current = self.ring.num_groups
            if num_groups < current:
                raise ValueError(
                    f"cannot shrink from {current} to {num_groups} groups"
                )
            added = []
            while self.ring.num_groups < num_groups:
                group = self.pool.add_group()
                added.append(group)
                with self._ring_lock:
                    self._ring = self._ring.with_num_groups(self._ring.num_groups + 1)
                with self._lock:
                    self._resizes += 1
            return {"num_groups": self.ring.num_groups, "added_groups": added}

    # ------------------------------------------------------------------ #
    # Worker transport (keep-alive, per thread)
    # ------------------------------------------------------------------ #
    def _connections(self) -> dict[str, http.client.HTTPConnection]:
        conns = getattr(self._local, "conns", None)
        if conns is None:
            conns = {}
            self._local.conns = conns
        return conns

    def _proxy(
        self,
        group: int,
        method: str,
        path: str,
        body: bytes | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One router->worker HTTP round trip; raises
        :class:`WorkerUnavailableError` when the group has no live worker.

        A stale keep-alive connection (the worker restarted between our
        requests) is retried once on a fresh socket before giving up.
        """
        url = self.pool.url_of(group)
        if url is None:
            raise WorkerUnavailableError(group)
        netloc = url[len("http://") :]
        conns = self._connections()
        last_error: Exception | None = None
        for attempt in range(2):
            conn = conns.get(netloc)
            if conn is None:
                host, _, port = netloc.rpartition(":")
                conn = http.client.HTTPConnection(
                    host, int(port), timeout=self.proxy_timeout_seconds
                )
                conns[netloc] = conn
            try:
                headers = {"Content-Type": "application/json"} if body else {}
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                data = response.read()
                self._proxied_total.labels(group=str(group)).inc()
                return response.status, dict(response.getheaders()), data
            except (http.client.HTTPException, ConnectionError, OSError) as error:
                last_error = error
                conn.close()
                conns.pop(netloc, None)
        raise WorkerUnavailableError(group) from last_error

    def _proxy_json(
        self, group: int, method: str, path: str, payload: Any = None
    ) -> tuple[int, dict[str, str], Any]:
        body = (
            json.dumps(payload, allow_nan=False).encode("utf-8")
            if payload is not None
            else None
        )
        status, headers, data = self._proxy(group, method, path, body=body)
        try:
            document = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            document = {"error": f"worker {group} returned a non-JSON body"}
        return status, headers, document

    def _propagate_backpressure(
        self, status: int, headers: Mapping[str, str], document: Any
    ) -> BackpressureError:
        """Re-raise a worker's own 429/503 with its Retry-After intact."""
        retry_after = WORKER_DOWN_RETRY_AFTER_SECONDS
        if isinstance(document, Mapping):
            try:
                retry_after = float(document.get("retry_after_seconds", retry_after))
            except (TypeError, ValueError):
                pass
        message = (
            str(document.get("error"))
            if isinstance(document, Mapping) and "error" in document
            else f"worker refused with {status}"
        )
        return BackpressureError(status, retry_after, message)

    # ------------------------------------------------------------------ #
    # Routes forwarded verbatim
    # ------------------------------------------------------------------ #
    def _forward(self, group: int, method: str, path: str, body: bytes) -> Reply:
        """Forward raw request bytes to ``group`` and its answer back
        verbatim, so a client talking to the router receives byte-identical
        answers to one talking straight at a worker."""
        status, headers, data = self._proxy(group, method, path, body=body or None)
        retry_after = headers.get("Retry-After")
        extra = {"Retry-After": retry_after} if retry_after else None
        return Reply(data, status, headers.get("Content-Type", JSON), extra)

    def http_solve(self, request: Request) -> Reply:
        """Route one ``/solve`` body to the owner of its fingerprint."""
        body = request.body
        payload, _ = request.parse()
        (fingerprint,) = self.fingerprints_of([payload], [body.decode("utf-8")])
        with self._lock:
            self._requests += 1
        return self._forward(self.group_of(fingerprint), "POST", "/solve", body)

    def http_fleet_allocate(self, request: Request) -> Reply:
        return self._forward(FLEET_GROUP, request.method, request.path, request.body)

    http_fleet_arrival = http_fleet_departure = http_fleet_allocate

    def http_resize(self, request: Request) -> Reply:
        num_groups = section(request.parse()[0], "num_groups", "resize needs {'num_groups': N}")
        return json_reply(self.resize(int(num_groups)))

    # ------------------------------------------------------------------ #
    # /solve_batch
    # ------------------------------------------------------------------ #
    def _fan_out(
        self, calls: "list[tuple[int, Callable[[], Any]]]"
    ) -> "list[tuple[int, Any]]":
        """Run per-group calls concurrently; single-group batches inline."""
        if len(calls) == 1:
            group, call = calls[0]
            return [(group, call())]
        futures = [(group, self._fanout.submit(call)) for group, call in calls]
        results = []
        first_error: BaseException | None = None
        for group, future in futures:
            try:
                results.append((group, future.result()))
            except BaseException as error:  # noqa: BLE001 - re-raised below
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error
        return results

    def _merge_reports(
        self, parts: "Iterable[tuple[list[int], Mapping[str, Any]]]", total: int
    ) -> tuple[dict[str, Any], list[Any], list[Any]]:
        """Merge per-worker batch responses into request order.

        ``parts`` pairs each group's original request indices with its
        response document (``report``/``fingerprints``/``outcomes``).
        ``unique`` sums correctly because each fingerprint is owned by
        exactly one group; ``runtime_seconds`` is the max because the
        parts ran concurrently.
        """
        report: dict[str, Any] = {field: 0 for field in _REPORT_SUM_FIELDS}
        report["runtime_seconds"] = 0.0
        counters: dict[str, int] = {}
        fingerprints: list[Any] = [None] * total
        outcomes: list[Any] = [None] * total
        for indices, document in parts:
            part_report = document["report"]
            for field in _REPORT_SUM_FIELDS:
                report[field] += part_report.get(field, 0)
            report["runtime_seconds"] = max(
                report["runtime_seconds"], part_report.get("runtime_seconds", 0.0)
            )
            for name, value in part_report.get("solver_counters", {}).items():
                counters[name] = counters.get(name, 0) + value
            part_prints = document.get("fingerprints") or []
            part_outcomes = document.get("outcomes") or []
            for position, index in enumerate(indices):
                if position < len(part_prints):
                    fingerprints[index] = part_prints[position]
                if position < len(part_outcomes):
                    outcomes[index] = part_outcomes[position]
        report["solver_counters"] = counters
        return report, fingerprints, outcomes

    def _post_parts(
        self,
        documents: Sequence[Mapping[str, Any]],
        texts: Sequence[str] | None,
        mode: str,
    ) -> tuple[dict[int, list[int]], dict[int, Any]]:
        """Split a batch by ownership and POST each owning group its slice,
        concurrently; returns the split and each group's response document.

        A worker's own 429/503 is passed on with its ``Retry-After``; any
        other unexpected answer keeps the worker's status."""
        owned = self.ring.partition(self.fingerprints_of(documents, texts))
        with self._lock:
            self._requests += len(documents)
            self._batches += 1
        expected = 202 if mode == "async" else 200

        def call_for(group: int, indices: "list[int]") -> Callable[[], Any]:
            payload: dict[str, Any] = {"mode": "async"} if mode == "async" else {}
            payload["requests"] = [documents[index] for index in indices]

            def call() -> Any:
                status, headers, document = self._proxy_json(
                    group, "POST", "/solve_batch", payload
                )
                if status in (429, 503):
                    raise self._propagate_backpressure(status, headers, document)
                if status != expected or not isinstance(document, Mapping):
                    error = document.get("error") if isinstance(document, Mapping) else None
                    raise HTTPError(status, str(error or f"status {status}"))
                return document

            return call

        calls = [(group, call_for(group, indices)) for group, indices in sorted(owned.items())]
        return owned, dict(self._fan_out(calls))

    def solve_batch_documents(
        self,
        documents: Sequence[Mapping[str, Any]],
        texts: Sequence[str] | None = None,
    ) -> dict[str, Any]:
        """Split a sync batch by ownership, fan out, merge in request order.

        ``texts`` are the documents' source texts, when the caller has them
        (see :func:`~repro.service.batch.loads_batch`)."""
        owned, responses = self._post_parts(documents, texts, "sync")
        report, fingerprints, outcomes = self._merge_reports(
            [(owned[group], responses[group]) for group in sorted(owned)],
            total=len(documents),
        )
        return {"report": report, "fingerprints": fingerprints, "outcomes": outcomes}

    def solve_batch_text(
        self,
        documents: Sequence[Mapping[str, Any]],
        texts: Sequence[str] | None = None,
    ) -> str:
        """The sync ``/solve_batch`` response text of
        :meth:`solve_batch_documents`."""
        return json.dumps(self.solve_batch_documents(documents, texts), allow_nan=False)

    def submit_batch_documents(
        self,
        documents: Sequence[Mapping[str, Any]],
        texts: Sequence[str] | None = None,
    ) -> dict[str, Any]:
        """Split an async batch, submit one worker job per owning group, and
        register the composite router job.  The 202 is returned only once
        *every* part is acknowledged (each worker fsynced its sub-batch), so
        the router's ack inherits the workers' durability.  ``texts`` as in
        :meth:`solve_batch_documents`."""
        owned, responses = self._post_parts(documents, texts, "async")
        created = time.time()
        parts = [
            RouterJobPart(
                group=group,
                job_id=str(responses[group]["job_id"]),
                indices=owned[group],
                documents=[dict(documents[index]) for index in owned[group]],
            )
            for group in sorted(owned)
        ]
        with self._lock:
            self._next_job += 1
            job = RouterJob(
                job_id=f"rjob-{self._next_job:08d}",
                created_unix=created,
                total=len(documents),
                parts=parts,
            )
            self._jobs[job.id] = job
            while len(self._jobs) > self.job_retention:
                self._jobs.popitem(last=False)
        return {
            "job_id": job.id,
            "status": "queued",
            "total": job.total,
            "created_unix": job.created_unix,
            "started_unix": None,
            "finished_unix": None,
            "wait_seconds": None,
            "run_seconds": None,
            "parts": [
                {"group": part.group, "job_id": part.job_id, "count": len(part.indices)}
                for part in parts
            ],
        }

    # ------------------------------------------------------------------ #
    # Composite job polling
    # ------------------------------------------------------------------ #
    def job(self, job_id: str, include_outcomes: bool = True) -> dict[str, Any] | None:
        """Merged document of one composite job, or ``None`` for unknown ids.

        Polls each part's owning worker; an unreachable owner raises
        :class:`WorkerUnavailableError` (the HTTP layer's 503 +
        ``Retry-After``), because a partial answer about a job's status
        would be a lie -- the part on the dead worker is journaled and
        will finish after replay.

        A worker that answers 404 for a part is one that crashed after
        finishing it (the WAL only replays *unfinished* jobs, and the job
        document itself lived in the dead process) or pruned it from
        retention.  Either way the slice is re-submitted from the part's
        retained request documents; deduping against the worker's result
        store makes the retry answer from cache rather than re-solving.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            return None
        parts: "list[tuple[list[int], dict[str, Any]]]" = []
        for part in job.parts:
            status, _, document = self._proxy_json(
                part.group, "GET", f"/jobs/{part.job_id}"
            )
            if status == 404:
                document = self._resubmit_part(job, part)
                parts.append((part.indices, dict(document)))
                continue
            if status != 200 or not isinstance(document, Mapping):
                raise WorkerUnavailableError(part.group)
            parts.append((part.indices, dict(document)))
        return self._merge_job(job, parts, include_outcomes=include_outcomes)

    def job_json(self, job_id: str) -> str | None:
        """The wire text of :meth:`job`, or ``None`` for unknown ids."""
        document = self.job(job_id)
        return None if document is None else json.dumps(document, allow_nan=False)

    def _resubmit_part(self, job: RouterJob, part: RouterJobPart) -> dict[str, Any]:
        """Re-submit one lost part and return a pollable part document.

        Serialised per composite job so concurrent polls cannot fork the
        part into two worker jobs.  The winner swaps ``part.job_id`` to the
        new worker job; losers re-read the (possibly already finished) new
        id instead of submitting again.
        """
        with job.lock:
            status, _, document = self._proxy_json(
                part.group, "GET", f"/jobs/{part.job_id}"
            )
            if status == 200 and isinstance(document, Mapping):
                return dict(document)
            if status != 404:
                raise WorkerUnavailableError(part.group)
            payload = {"mode": "async", "requests": part.documents}
            status, headers, document = self._proxy_json(
                part.group, "POST", "/solve_batch", payload
            )
            if status in (429, 503):
                raise self._propagate_backpressure(status, headers, document)
            if status != 202 or not isinstance(document, Mapping):
                raise WorkerUnavailableError(part.group)
            part.job_id = str(document["job_id"])
            with self._lock:
                self._part_resubmits += 1
            self._counter_part_resubmits.inc()
            return dict(document)

    def _merge_job(
        self,
        job: RouterJob,
        parts: "list[tuple[list[int], dict[str, Any]]]",
        include_outcomes: bool,
    ) -> dict[str, Any]:
        statuses = [document["status"] for _, document in parts]
        if any(status == "failed" for status in statuses):
            status = "failed"
        elif all(status == "done" for status in statuses):
            status = "done"
        elif any(status in ("running", "done") for status in statuses):
            status = "running"
        else:
            status = "queued"
        started = [
            document.get("started_unix")
            for _, document in parts
            if document.get("started_unix") is not None
        ]
        finished = [
            document.get("finished_unix")
            for _, document in parts
            if document.get("finished_unix") is not None
        ]
        started_unix = min(started) if started else None
        terminal = status in ("done", "failed")
        finished_unix = max(finished) if terminal and len(finished) == len(parts) else None
        document: dict[str, Any] = {
            "job_id": job.id,
            "status": status,
            "total": job.total,
            "created_unix": job.created_unix,
            "started_unix": started_unix,
            "finished_unix": finished_unix,
            "wait_seconds": (
                max(0.0, started_unix - job.created_unix)
                if started_unix is not None
                else None
            ),
            "run_seconds": (
                max(0.0, finished_unix - started_unix)
                if started_unix is not None and finished_unix is not None
                else None
            ),
        }
        if any(part.get("recovered") for _, part in parts):
            document["recovered"] = True
        errors = [part["error"] for _, part in parts if part.get("error")]
        if errors:
            document["error"] = "; ".join(str(error) for error in errors)
        if status == "done":
            report, fingerprints, outcomes = self._merge_reports(parts, total=job.total)
            document["report"] = report
            document["fingerprints"] = fingerprints
            if include_outcomes:
                document["outcomes"] = outcomes
        return document

    def list_jobs(self) -> list[dict[str, Any]]:
        """Merged summaries of the retained composite jobs, oldest first.

        A job with an unreachable part is reported with status
        ``"unavailable"`` rather than failing the whole listing.
        """
        with self._lock:
            jobs = list(self._jobs.values())
        summaries = []
        for job in jobs:
            try:
                summary = self.job(job.id, include_outcomes=False)
            except WorkerUnavailableError:
                summary = {
                    "job_id": job.id,
                    "status": "unavailable",
                    "total": job.total,
                    "created_unix": job.created_unix,
                }
            if summary is not None:
                summary.pop("fingerprints", None)
                summaries.append(summary)
        return summaries

    # ------------------------------------------------------------------ #
    # /trace
    # ------------------------------------------------------------------ #
    def trace(self, fingerprint: str) -> dict[str, Any] | None:
        """The owning worker's span tree of ``fingerprint``, or ``None``."""
        group = self.group_of(fingerprint)
        status, _, document = self._proxy_json(group, "GET", f"/trace/{fingerprint}")
        if status == 404:
            return None
        if status != 200:
            raise WorkerUnavailableError(group)
        return document

    # ------------------------------------------------------------------ #
    # Aggregated observability
    # ------------------------------------------------------------------ #
    def health(self) -> dict[str, Any]:
        status_rows = self.pool.worker_status()
        healthy = sum(1 for row in status_rows if row["healthy"])
        return {
            "status": "ok",
            "uptime_seconds": time.time() - self.started_unix,
            "groups": len(status_rows),
            "healthy_groups": healthy,
        }

    def stats(self) -> dict[str, Any]:
        """Fleet stats: every worker's counters summed + nested per worker.

        Unreachable workers are skipped (listed in ``unreachable_groups``)
        so a crashed group never takes ``/stats`` down with it.
        """
        per_worker: dict[str, Any] = {}
        unreachable: list[int] = []
        for group in self.pool.groups():
            try:
                status, _, document = self._proxy_json(group, "GET", "/stats")
            except WorkerUnavailableError:
                unreachable.append(group)
                continue
            if status != 200 or not isinstance(document, Mapping):
                unreachable.append(group)
                continue
            per_worker[str(group)] = dict(document)

        service_totals = {"requests": 0, "batches": 0, "solves": 0}
        cache_totals = CacheStats()
        cache_sizes: dict[str, int] = {}
        jobs_totals: dict[str, Any] = {}
        solver_totals: dict[str, int] = {}
        admission_totals = {"rejected_429": 0, "rejected_503": 0}
        wal_totals: dict[str, Any] = {"enabled": False}
        for document in per_worker.values():
            for key in service_totals:
                service_totals[key] += document.get("service", {}).get(key, 0)
            cache_totals.add(CacheStats(**{
                key: document.get("cache", {}).get(key, 0)
                for key in (
                    "memory_hits", "disk_hits", "misses", "puts", "evictions",
                    "disk_evictions", "ttl_evictions", "quarantines",
                )
            }))
            for tier, count in document.get("cache_sizes", {}).items():
                cache_sizes[tier] = cache_sizes.get(tier, 0) + count
            for key, value in document.get("jobs", {}).items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    continue
                jobs_totals[key] = jobs_totals.get(key, 0) + value
            for key, value in document.get("solver", {}).items():
                solver_totals[key] = solver_totals.get(key, 0) + value
            admission = document.get("admission", {})
            for key in admission_totals:
                admission_totals[key] += admission.get(key, 0)
            wal = document.get("wal", {})
            if wal.get("enabled"):
                wal_totals["enabled"] = True
                for key, value in wal.items():
                    if isinstance(value, bool) or not isinstance(value, (int, float)):
                        continue
                    wal_totals[key] = wal_totals.get(key, 0) + value
        with self._lock:
            router = {
                "requests": self._requests,
                "batches": self._batches,
                "jobs": len(self._jobs),
                "part_resubmits": self._part_resubmits,
                "resizes": self._resizes,
                "num_groups": self.ring.num_groups,
                "fingerprint_memo_hits": self._memo_counts["hits"],
                "fingerprint_memo_misses": self._memo_counts["misses"],
                "started_unix": self.started_unix,
                "uptime_seconds": time.time() - self.started_unix,
                "version": __version__,
            }
            admission_totals["rejected_429"] += self._rejected.get("429", 0)
            admission_totals["rejected_503"] += self._rejected.get("503", 0)
        admission_totals["rejected_total"] = (
            admission_totals["rejected_429"] + admission_totals["rejected_503"]
        )
        return {
            "router": router,
            "pool": self.pool.worker_status(),
            "unreachable_groups": unreachable,
            "service": service_totals,
            "cache": cache_totals.as_dict(),
            "cache_sizes": cache_sizes,
            "jobs": jobs_totals,
            "solver": solver_totals,
            "admission": admission_totals,
            "wal": wal_totals,
            "workers": per_worker,
        }

    def metrics_text(self) -> str:
        """One merged Prometheus exposition: every worker + the router,
        each sample labelled with its ``worker``."""
        status_rows = self.pool.worker_status()
        self._groups_gauge.set(len(status_rows))
        self._healthy_gauge.set(sum(1 for row in status_rows if row["healthy"]))
        expositions: list[tuple[str, str]] = []
        for group in self.pool.groups():
            try:
                status, _, data = self._proxy(group, "GET", "/metrics")
            except WorkerUnavailableError:
                continue
            if status == 200:
                expositions.append((f"g{group}", data.decode("utf-8")))
        expositions.append(("router", self.metrics.render_prometheus()))
        return merge_prometheus(expositions)

    def observe_http(self, method: str, status: int) -> None:
        """Count one answered request; every 429/503 the router answers
        (a down worker, or a worker's own refusal passed on) is also an
        admission rejection."""
        self._http_requests_total.labels(method=method, status=str(status)).inc()
        if status in (429, 503):
            code = str(status)
            self._admission_rejected_total.labels(code=code).inc()
            with self._lock:
                self._rejected[code] += 1

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        self._fanout.shutdown(wait=False)
        if self.own_pool:
            self.pool.close()


class _RouterRequestHandler(FrontDoorHandler):
    """The front door's handler under its router name."""


#: The router is served by the same front door as a single service.
start_router = start_server
