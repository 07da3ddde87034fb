"""The allocation service and its stdlib-only HTTP JSON front-end.

:class:`AllocationService` is the resident, cache-backed solving engine --
usable directly from Python (tests, notebooks, the batch API) -- and
:func:`start_server` / :func:`run_server` expose it over HTTP:

========================  ==========================================================
``POST /solve``           one request ``{"problem": ..., "method": ...,
                          "heuristic_settings"?: ..., "exact_settings"?: ...}``
``POST /solve_batch``     ``{"requests": [...]}`` -- deduped, cache-backed batch;
                          with ``"mode": "async"`` it enqueues and returns a
                          job id immediately instead of blocking
``GET /jobs``             summaries of every retained async job
``GET /jobs/<id>``        one async job (outcomes included once ``done``)
``GET /health``           liveness + uptime
``GET /stats``            cache/job/service counters, solver work counters
``GET /metrics``          Prometheus text exposition (counters/gauges/histograms)
``GET /trace/<print>``    span tree of the last traced solve of a fingerprint
``POST /fleet/allocate``  ``{"fleet": ..., "mode": "heuristic"|"exact"}`` --
                          multi-tenant fleet allocation, cached by fleet
                          fingerprint
``POST /fleet/tenants``   ``{"tenant": ...}`` -- tenant arrival; re-carves the
                          current fleet (unchanged shares answer from the
                          solve memo)
``DELETE /fleet/tenants/<id>``  tenant departure; re-carves the remainder
========================  ==========================================================

The server is a ``ThreadingHTTPServer``: requests are handled concurrently
and meet at the thread-safe :class:`~repro.service.store.ResultStore`.
Solver fan-out inside a batch goes through the shared
:class:`~repro.explore.executor.SweepExecutor` (use a persistent pool via
``repro serve --jobs N``); async batches drain through a
:class:`~repro.service.jobs.JobQueue` worker pool (``repro serve
--workers N``).

Durability & backpressure (PR 8): with ``wal`` set the service journals
every async submission to a :class:`~repro.service.wal.JobWal` before the
``202`` ack and replays unfinished jobs through the normal deduping batch
path at startup, so an acknowledged job survives ``kill -9``.  Overload is
refused, not absorbed: a full job queue answers ``429`` and an exhausted
sync-solve pool answers ``503``, both with a ``Retry-After`` header derived
from the actual backlog (see :class:`BackpressureError`).
"""

from __future__ import annotations

import contextlib
import json
import math
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

from .. import __version__
from ..core.solution import SolveOutcome, SolveStatus
from ..core.solvers import solve
from ..explore.executor import SweepExecutor
from ..fleet import (
    FleetManager,
    FleetOutcome,
    FleetState,
    Tenant,
    fleet_from_dict,
    tenant_from_dict,
)
from .canonical import fleet_fingerprint
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceStore, start_trace, tracing_enabled
from ..workloads.serialization import SerializationError
from .batch import (
    BatchReport,
    SolveRequest,
    accumulate_counters,
    decode_outcome,
    encode_outcome,
    json_with_array,
    loads_batch,
    map_distinct,
    outcome_json,
    request_from_dict,
    requests_from_documents,
    solve_batch,
)
from .jobs import JobQueue, QueueFullError
from .store import ResultStore
from .wal import JobWal


class BackpressureError(RuntimeError):
    """The service refused work it could not absorb (HTTP 429/503).

    ``status`` is 429 for a full async job queue and 503 for an exhausted
    sync-solve pool; ``retry_after_seconds`` is derived from the observed
    backlog (queue depth x average job run time), so a well-behaved client
    backing off by it returns roughly when capacity exists.
    """

    def __init__(self, status: int, retry_after_seconds: float, message: str):
        super().__init__(message)
        self.status = status
        self.retry_after_seconds = retry_after_seconds


class AllocationService:
    """Long-running, cache-backed allocation solving engine.

    Parameters
    ----------
    store:
        Result store; defaults to a memory-only store.  Pass one with a
        ``cache_dir`` to survive restarts.
    executor:
        Sweep executor used by :meth:`solve_batch` fan-out; defaults to the
        chunked-serial engine.
    job_workers:
        Background worker threads draining the async batch queue (threads
        start lazily on the first async submission).
    job_retention:
        Completed async jobs kept for polling before the oldest are pruned.
    tracing:
        Record a phase-span tree for every ``solve_request`` (served over
        ``GET /trace/<fingerprint>``).  ``None`` defers to the
        ``REPRO_TRACE`` environment flag; tracing is off by default because
        the span recorder, while cheap, is not free on the sub-millisecond
        warm-hit path.
    trace_retention:
        Traces kept (LRU by fingerprint) when tracing is on.
    wal:
        Durability journal for async jobs: a :class:`~repro.service.wal.
        JobWal`, or a directory path to build one in.  When set, every
        ``mode=async`` submission is fsynced to the journal before its
        ``202`` ack and unfinished jobs are replayed at construction (see
        ``recover``); :attr:`recovered_jobs` reports how many came back.
    max_queue_depth:
        Async admission bound; a submit past it raises
        :class:`BackpressureError` with status 429 (``None`` = unbounded).
    max_inflight_solves:
        Concurrent *synchronous* solve calls admitted (HTTP ``/solve`` and
        sync ``/solve_batch``); past the bound the request is shed with a
        503 instead of queueing invisibly on the GIL (``None`` = unbounded).
        Async jobs are exempt -- their concurrency is the worker pool.
    recover:
        Replay unfinished WAL entries at construction (default).  Chaos
        harnesses pass ``False`` to inspect the journal before replay.
    start_job_workers:
        Test/chaos hook forwarded to the job queue: ``False`` accepts and
        journals submissions without running them (an in-process crash
        right after the ack).
    """

    def __init__(
        self,
        store: ResultStore | None = None,
        executor: SweepExecutor | None = None,
        job_workers: int = 1,
        job_retention: int = 256,
        tracing: bool | None = None,
        trace_retention: int = 256,
        wal: "JobWal | str | Path | None" = None,
        max_queue_depth: int | None = None,
        max_inflight_solves: int | None = None,
        recover: bool = True,
        start_job_workers: bool = True,
    ):
        self.store = store if store is not None else ResultStore()
        self.executor = executor or SweepExecutor()
        if wal is not None and not isinstance(wal, JobWal):
            wal = JobWal(wal)
        self.wal = wal
        self.max_inflight_solves = max_inflight_solves
        self._sync_slots = (
            threading.Semaphore(max_inflight_solves)
            if max_inflight_solves is not None
            else None
        )
        self._rejected: dict[str, int] = {"429": 0, "503": 0}
        self.jobs = JobQueue(
            runner=self.solve_batch,
            workers=job_workers,
            max_retained=job_retention,
            on_finished=self._observe_job,
            wal=self.wal,
            max_queue_depth=max_queue_depth,
            start_workers=start_job_workers,
        )
        self.fleet = FleetManager()
        self.tracing = tracing_enabled() if tracing is None else bool(tracing)
        self.traces = TraceStore(capacity=trace_retention)
        self.started_unix = time.time()
        self._lock = threading.Lock()
        self._requests = 0
        self._batches = 0
        self._solves = 0
        #: Aggregated solver work counters (LP solves, probes, packer search
        #: nodes, memo hits, ...) over every non-cached solve this service
        #: performed; cache hits add nothing, mirroring the actual work done.
        self._solver_counters: dict[str, int] = {}
        # The registry is per-service (not module-global) so tests and
        # embedded services never collide on metric names.
        self.metrics = MetricsRegistry()
        metrics = self.metrics
        self._requests_total = metrics.counter(
            "repro_requests_total", "Solve requests answered (any cache tier)."
        )
        self._solves_total = metrics.counter(
            "repro_solves_total", "Requests that reached the solver (cache misses)."
        )
        self._cache_hits_total = metrics.counter(
            "repro_cache_hits_total",
            "Requests answered from a cache tier.",
            label_names=("tier",),
        )
        self._batches_total = metrics.counter(
            "repro_batches_total", "Batch submissions answered (sync and async)."
        )
        self._http_requests_total = metrics.counter(
            "repro_http_requests_total",
            "HTTP requests served, by method and status code.",
            label_names=("method", "status"),
        )
        self._solve_latency = metrics.histogram(
            "repro_solve_latency_seconds",
            "End-to-end latency of solver-tier requests.",
            label_names=("method",),
        )
        self._cache_hit_latency = metrics.histogram(
            "repro_cache_hit_latency_seconds",
            "End-to-end latency of cache-tier requests.",
            label_names=("tier",),
        )
        self._batch_latency = metrics.histogram(
            "repro_batch_latency_seconds", "Wall clock of one solve_batch call."
        )
        self._job_wait = metrics.histogram(
            "repro_job_wait_seconds", "Async job queue wait (submit to pickup)."
        )
        self._job_run = metrics.histogram(
            "repro_job_run_seconds", "Async job run time (pickup to terminal state)."
        )
        self._uptime_gauge = metrics.gauge(
            "repro_uptime_seconds", "Seconds since the service started."
        )
        self._queue_depth_gauge = metrics.gauge(
            "repro_job_queue_depth", "Async jobs waiting for a worker."
        )
        self._jobs_running_gauge = metrics.gauge(
            "repro_jobs_running", "Async jobs currently executing."
        )
        self._job_workers_gauge = metrics.gauge(
            "repro_job_workers", "Async job worker threads."
        )
        self._cache_entries_gauge = metrics.gauge(
            "repro_cache_entries",
            "Result-store entries per cache tier.",
            label_names=("tier",),
        )
        self._fleet_allocations_total = metrics.counter(
            "repro_fleet_allocations_total",
            "Fleet allocations served (cache hits included), by mode.",
            label_names=("mode",),
        )
        self._fleet_events_total = metrics.counter(
            "repro_fleet_events_total",
            "Tenant arrivals and departures.",
            label_names=("event",),
        )
        self._fleet_tenants_gauge = metrics.gauge(
            "repro_fleet_tenants", "Tenants in the current fleet."
        )
        self._fleet_devices_gauge = metrics.gauge(
            "repro_fleet_devices", "Devices in the current fleet's pool."
        )
        self._admission_rejected_total = metrics.counter(
            "repro_admission_rejected_total",
            "Requests refused for backpressure, by HTTP status code.",
            label_names=("code",),
        )
        self._wal_appends_gauge = metrics.gauge(
            "repro_wal_appends", "WAL records appended since startup."
        )
        self._wal_replays_gauge = metrics.gauge(
            "repro_wal_replays", "WAL replay passes performed (startup recovery)."
        )
        self._wal_compactions_gauge = metrics.gauge(
            "repro_wal_compactions", "WAL segment compactions performed."
        )
        self._wal_live_jobs_gauge = metrics.gauge(
            "repro_wal_live_jobs", "Journaled jobs not yet marked complete."
        )
        # Recovery runs last: the replayed jobs drain through solve_batch,
        # which touches the instruments built above.
        self.recovered_jobs = 0
        if recover and self.wal is not None:
            self.recovered_jobs = self.jobs.recover()

    # ------------------------------------------------------------------ #
    # Backpressure
    # ------------------------------------------------------------------ #
    def _retry_after_seconds(self, depth: int) -> float:
        """Backlog-derived retry hint: depth x observed mean job run time,
        clamped to [1, 30] seconds.

        Before any job has finished there is no observed mean to scale by;
        the hint is the 1 s floor, not ``depth`` seconds of a fabricated
        1 s/job guess -- a cold queue must not tell its first overflowing
        client to stay away for half a minute.
        """
        job_stats = self.jobs.stats()
        finished = job_stats["completed"] + job_stats["failed"]
        if not finished:
            return 1.0
        mean_run = job_stats["run_seconds_total"] / finished
        if not math.isfinite(mean_run) or mean_run <= 0.0:
            return 1.0
        return max(1.0, min(30.0, depth * max(mean_run, 0.05)))

    def _reject(self, status: int, retry_after: float, message: str) -> BackpressureError:
        code = str(status)
        self._admission_rejected_total.labels(code=code).inc()
        with self._lock:
            self._rejected[code] = self._rejected.get(code, 0) + 1
        return BackpressureError(status, retry_after, message)

    @contextlib.contextmanager
    def sync_admission(self) -> Iterator[None]:
        """Admission gate for synchronous solve calls (HTTP ``/solve`` and
        sync ``/solve_batch``); sheds with a 503 when the pool is exhausted.
        """
        if self._sync_slots is None:
            yield
            return
        if not self._sync_slots.acquire(blocking=False):
            raise self._reject(
                503,
                self._retry_after_seconds(1),
                f"sync solve pool exhausted ({self.max_inflight_solves} in flight);"
                " retry later or submit with mode=async",
            )
        try:
            yield
        finally:
            self._sync_slots.release()

    def _accumulate_solver_counters(self, counters: Mapping[str, Any]) -> None:
        with self._lock:
            accumulate_counters(self._solver_counters, counters)

    def _observe_job(self, job: Any) -> None:
        """JobQueue ``on_finished`` observer: wait/run latency histograms."""
        if job.wait_seconds is not None:
            self._job_wait.observe(job.wait_seconds)
        if job.run_seconds is not None:
            self._job_run.observe(job.run_seconds)

    def observe_http(self, method: str, status: int) -> None:
        """Count one served HTTP request (called by the request handler)."""
        self._http_requests_total.labels(method=method, status=str(status)).inc()

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #
    def solve_request(self, request: SolveRequest) -> tuple[SolveOutcome, dict[str, Any]]:
        """Answer one request, consulting the cache tiers first.

        Returns the outcome plus a metadata dict: the request fingerprint,
        which tier answered (``"memory"``/``"disk"``/``"solver"``) and the
        service-side latency in milliseconds.

        With tracing on, the request runs under a ``"solve"`` span tree
        (phases recorded by the core solvers) retained in :attr:`traces`
        under the request fingerprint.
        """
        start = time.perf_counter()
        fingerprint = request.fingerprint()
        if self.tracing:
            with start_trace(
                "solve", method=request.method, fingerprint=fingerprint
            ) as trace:
                outcome, source = self._answer(request, fingerprint)
            self.traces.put(fingerprint, trace.as_dict())
        else:
            outcome, source = self._answer(request, fingerprint)
        latency_seconds = time.perf_counter() - start
        self._requests_total.inc()
        if source == "solver":
            self._solve_latency.labels(method=request.method).observe(latency_seconds)
        else:
            self._cache_hits_total.labels(tier=source).inc()
            self._cache_hit_latency.labels(tier=source).observe(latency_seconds)
        meta = {
            "fingerprint": fingerprint,
            "cache": source,
            "latency_ms": latency_seconds * 1000.0,
        }
        return outcome, meta

    def _answer(self, request: SolveRequest, fingerprint: str) -> tuple[SolveOutcome, str]:
        """Cache tiers first, solver on miss; returns (outcome, tier)."""
        lookup = self.store.get(fingerprint)
        if lookup.hit:
            assert lookup.payload is not None
            outcome = decode_outcome(lookup.payload, request.problem, fingerprint=fingerprint)
            source = lookup.tier
        else:
            outcome = solve(
                request.problem,
                method=request.method,
                heuristic_settings=request.heuristic_settings,
                exact_settings=request.exact_settings,
            )
            if outcome.status is not SolveStatus.ERROR:
                self.store.put(fingerprint, encode_outcome(outcome, request.problem))
            source = "solver"
            self._accumulate_solver_counters(outcome.counters)
            self._solves_total.inc()
            with self._lock:
                self._solves += 1
        with self._lock:
            self._requests += 1
        return outcome, source

    def solve_batch(self, requests: list[SolveRequest]) -> tuple[list[SolveOutcome], BatchReport]:
        """Answer a batch via :func:`repro.service.batch.solve_batch`."""
        outcomes, report = solve_batch(requests, store=self.store, executor=self.executor)
        self._accumulate_solver_counters(report.solver_counters)
        with self._lock:
            self._requests += report.total
            self._batches += 1
            self._solves += report.solves
        self._batches_total.inc()
        self._batch_latency.observe(report.runtime_seconds)
        return outcomes, report

    def submit_batch(
        self,
        requests: list[SolveRequest],
        documents: "list[dict[str, Any]] | None" = None,
    ) -> dict[str, Any]:
        """Enqueue an async batch; returns the queued job document.

        With a WAL attached the returned ack is durable (the submission is
        fsynced first).  A full queue raises :class:`BackpressureError`
        (429) with a backlog-derived retry hint; ``documents`` forwards the
        already-parsed wire documents so the journal skips re-serialising.
        """
        try:
            return self.jobs.submit(requests, documents=documents)
        except QueueFullError as error:
            raise self._reject(
                429, self._retry_after_seconds(error.depth), str(error)
            ) from error

    # ------------------------------------------------------------------ #
    # Fleet allocation
    # ------------------------------------------------------------------ #
    def fleet_allocate(
        self, fleet: FleetState, mode: str = "heuristic"
    ) -> tuple[FleetOutcome, dict[str, Any]]:
        """Allocate a fleet, consulting the result store first.

        Fleet outcomes ride the same store/WAL/router plumbing as per-app
        outcomes: the key is :func:`~repro.service.canonical.
        fleet_fingerprint` (namespaced so the two can never collide), the
        payload the ``FleetOutcome.to_dict`` JSON.  Returns the outcome plus
        the usual metadata dict (fingerprint, answering tier, latency).
        """
        start = time.perf_counter()
        fingerprint = fleet_fingerprint(fleet, mode)
        lookup = self.store.get(fingerprint)
        if lookup.hit:
            assert lookup.payload is not None
            outcome = FleetOutcome.from_dict(json.loads(lookup.payload), fleet)
            self.fleet.adopt(fleet, outcome, mode)
            source = lookup.tier
            self._cache_hits_total.labels(tier=source).inc()
        else:
            outcome = self.fleet.allocate(fleet, mode=mode)
            self.store.put(
                fingerprint, json.dumps(outcome.to_dict(), allow_nan=False)
            )
            source = "solver"
        self._fleet_allocations_total.labels(mode=mode).inc()
        latency_seconds = time.perf_counter() - start
        meta = {
            "fingerprint": fingerprint,
            "cache": source,
            "latency_ms": latency_seconds * 1000.0,
        }
        return outcome, meta

    def fleet_arrival(
        self, tenant: Tenant, mode: str = "heuristic"
    ) -> tuple[FleetOutcome, dict[str, Any]]:
        """Admit a tenant into the current fleet and re-allocate.

        The re-carve is incremental in cost: the manager's persistent solve
        memo answers every ``(tenant, share)`` pair that did not move, so
        only tenants whose shares actually changed pay solver time.
        """
        fleet = self.fleet.add_tenant(tenant)
        self._fleet_events_total.labels(event="arrival").inc()
        outcome, meta = self.fleet_allocate(fleet, mode=mode)
        meta["tenants"] = list(fleet.tenant_ids)
        return outcome, meta

    def fleet_departure(
        self, tenant_id: str, mode: str = "heuristic"
    ) -> tuple["FleetOutcome | None", dict[str, Any]]:
        """Remove a tenant from the current fleet and re-allocate the rest.

        An empty fleet (the last tenant left) skips allocation and returns
        ``(None, meta)``.
        """
        fleet = self.fleet.remove_tenant(tenant_id)
        self._fleet_events_total.labels(event="departure").inc()
        if not fleet.tenants:
            return None, {"tenants": []}
        outcome, meta = self.fleet_allocate(fleet, mode=mode)
        meta["tenants"] = list(fleet.tenant_ids)
        return outcome, meta

    def job(self, job_id: str, include_outcomes: bool = True) -> dict[str, Any] | None:
        return self.jobs.get(job_id, include_outcomes=include_outcomes)

    def job_json(self, job_id: str) -> str | None:
        """The wire text of :meth:`job` (outcomes included), or ``None``."""
        return self.jobs.get_json(job_id)

    def list_jobs(self) -> list[dict[str, Any]]:
        return self.jobs.list_jobs()

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def _sweep_expired_entries(self) -> None:
        """Drop expired-but-untouched cache entries before sampling sizes.

        Expiry is lazy on access, so without this sweep the size gauges
        overreport warm capacity by every entry that expired and was never
        queried again.  Swept entries count into ``ttl_evictions``.
        """
        self.store.sweep_expired()

    def stats(self) -> dict[str, Any]:
        """Service counters + cache/job tier counters, JSON-compatible."""
        self._sweep_expired_entries()
        with self._lock:
            service = {
                "requests": self._requests,
                "batches": self._batches,
                "solves": self._solves,
                "started_unix": self.started_unix,
                "uptime_seconds": time.time() - self.started_unix,
                "tracing": self.tracing,
                "version": __version__,
            }
        with self._lock:
            solver = dict(self._solver_counters)
        with self._lock:
            admission: dict[str, Any] = {
                "max_queue_depth": self.jobs.max_queue_depth,
                "max_inflight_solves": self.max_inflight_solves,
                "rejected_429": self._rejected.get("429", 0),
                "rejected_503": self._rejected.get("503", 0),
            }
        admission["rejected_total"] = admission["rejected_429"] + admission["rejected_503"]
        wal_stats: dict[str, Any] = {"enabled": self.wal is not None}
        if self.wal is not None:
            wal_stats.update(self.wal.stats())
            wal_stats["recovered_jobs"] = self.recovered_jobs
        return {
            "service": service,
            "cache": self.store.stats().as_dict(),
            "cache_sizes": self.store.sizes(),
            "jobs": self.jobs.stats(),
            "solver": solver,
            "admission": admission,
            "wal": wal_stats,
            "fleet": self.fleet.stats(),
            "cache_bytes": self.store.payload_bytes(),
        }

    def trace(self, fingerprint: str) -> dict[str, Any] | None:
        """The retained span tree of one fingerprint, or ``None``."""
        return self.traces.get(fingerprint)

    def metrics_text(self) -> str:
        """Prometheus text exposition of every instrument.

        Gauges are sampled here (scrape time) from the live stats rather
        than maintained on the hot path -- queue depth and cache entry counts
        are cheap to read and only dashboards need them.
        """
        self._sweep_expired_entries()
        job_stats = self.jobs.stats()
        self._uptime_gauge.set(time.time() - self.started_unix)
        self._queue_depth_gauge.set(job_stats["queue_depth"])
        self._jobs_running_gauge.set(job_stats["running"])
        self._job_workers_gauge.set(job_stats["workers"])
        for tier, count in self.store.sizes().items():
            self._cache_entries_gauge.labels(tier=tier).set(count)
        fleet_stats = self.fleet.stats()
        self._fleet_tenants_gauge.set(fleet_stats["tenants"])
        self._fleet_devices_gauge.set(fleet_stats["devices"])
        if self.wal is not None:
            wal_stats = self.wal.stats()
            self._wal_appends_gauge.set(wal_stats["appends"])
            self._wal_replays_gauge.set(wal_stats["replays"])
            self._wal_compactions_gauge.set(wal_stats["compactions"])
            self._wal_live_jobs_gauge.set(wal_stats["live_jobs"])
        return self.metrics.render_prometheus()

    def close(self) -> None:
        self.jobs.close()
        if self.wal is not None:
            self.wal.close()
        self.store.close()
        close_pool = getattr(self.executor, "close", None)
        if callable(close_pool):
            close_pool()


# --------------------------------------------------------------------------- #
# HTTP layer
# --------------------------------------------------------------------------- #
class _ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes the service endpoints onto an :class:`AllocationService`.

    Every request is counted in ``repro_http_requests_total`` and, unless
    the server runs quiet, logged as one structured JSON line on stderr
    (method, path, status, latency; the request fingerprint when the route
    produced one) -- replacing the stdlib's free-text access log.
    """

    server: "AllocationHTTPServer"
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm the
    # second waits for the client's delayed ACK of the first.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        # The stdlib access log is replaced by _dispatch's JSON line.
        pass

    def _send_json(
        self,
        payload: Mapping[str, Any],
        status: int = 200,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        # allow_nan=False guarantees strict RFC 8259 JSON on the wire; the
        # outcome documents already encode non-finite floats as null.
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        self._send_body(body, status, "application/json", extra_headers=extra_headers)

    def _send_text(self, text: str, status: int = 200, content_type: str = "text/plain") -> None:
        self._send_body(text.encode("utf-8"), status, content_type)

    def _send_body(
        self,
        body: bytes,
        status: int,
        content_type: str,
        extra_headers: Mapping[str, str] | None = None,
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if extra_headers:
            for name, value in extra_headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_backpressure(self, error: BackpressureError) -> None:
        """429/503 + ``Retry-After`` (integral seconds, rounded up)."""
        self._send_json(
            {
                "error": str(error),
                "retry_after_seconds": error.retry_after_seconds,
            },
            status=error.status,
            extra_headers={"Retry-After": str(math.ceil(error.retry_after_seconds))},
        )

    def _send_error_json(self, message: str, status: int = 400) -> None:
        self._send_json({"error": message}, status=status)

    def _read_json_body(self) -> tuple[Any, list[str] | None]:
        """The parsed body plus the source texts of its ``"requests"``
        elements (see :func:`~repro.service.batch.loads_batch`)."""
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise SerializationError("request body is empty")
        try:
            return loads_batch(self.rfile.read(length).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise SerializationError(f"request body is not valid JSON: {error}") from error

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _dispatch(self, handler: Any) -> None:
        """Run one route under the request counter + structured access log."""
        start = time.perf_counter()
        self._status = 0
        self._log_fingerprint: str | None = None
        try:
            handler()
        finally:
            latency_ms = (time.perf_counter() - start) * 1000.0
            service = self.server.service
            service.observe_http(self.command, self._status)
            if not self.server.quiet:
                record: dict[str, Any] = {
                    "time_unix": round(time.time(), 3),
                    "method": self.command,
                    "path": self.path,
                    "status": self._status,
                    "latency_ms": round(latency_ms, 3),
                }
                if self._log_fingerprint is not None:
                    record["fingerprint"] = self._log_fingerprint
                print(json.dumps(record), file=sys.stderr, flush=True)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._handle_post)

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(self._handle_delete)

    def _handle_get(self) -> None:
        service = self.server.service
        if self.path == "/health":
            self._send_json(
                {"status": "ok", "uptime_seconds": time.time() - service.started_unix}
            )
        elif self.path == "/stats":
            self._send_json(service.stats())
        elif self.path == "/metrics":
            self._send_text(
                service.metrics_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
        elif self.path.startswith("/trace/"):
            fingerprint = self.path[len("/trace/"):]
            document = service.trace(fingerprint)
            if document is None:
                self._send_error_json(f"no trace for {fingerprint!r}", status=404)
            else:
                self._log_fingerprint = fingerprint
                self._send_json(document)
        elif self.path == "/jobs":
            self._send_json({"jobs": service.list_jobs()})
        elif self.path.startswith("/jobs/"):
            job_id = self.path[len("/jobs/"):]
            text = service.job_json(job_id)
            if text is None:
                self._send_error_json(f"unknown job {job_id!r}", status=404)
            else:
                self._send_body(text.encode("utf-8"), 200, "application/json")
        else:
            self._send_error_json(f"unknown endpoint {self.path!r}", status=404)

    def _handle_post(self) -> None:
        service = self.server.service
        try:
            payload, request_texts = self._read_json_body()
            if self.path == "/solve":
                request = request_from_dict(payload)
                with service.sync_admission():
                    outcome, meta = service.solve_request(request)
                self._log_fingerprint = meta["fingerprint"]
                self._send_json({**meta, "outcome": outcome.to_dict()})
            elif self.path == "/solve_batch":
                if not isinstance(payload, Mapping) or "requests" not in payload:
                    raise SerializationError("a batch document needs a 'requests' list")
                mode = str(payload.get("mode", "sync"))
                if mode not in ("sync", "async"):
                    raise SerializationError(f"unknown batch mode {mode!r}; options: sync, async")
                documents = payload["requests"]
                if not isinstance(documents, list) or not documents:
                    raise SerializationError("'requests' must be a non-empty list")
                requests = requests_from_documents(documents, request_texts)
                if mode == "async":
                    # Forward the wire documents: the WAL journals exactly
                    # what the client sent, no re-serialisation.
                    self._send_json(
                        service.submit_batch(requests, documents=documents), status=202
                    )
                    return
                with service.sync_admission():
                    outcomes, report = service.solve_batch(requests)
                body = json_with_array(
                    {"report": report.as_dict(), "fingerprints": report.fingerprints},
                    "outcomes",
                    map_distinct(outcomes, outcome_json),
                    allow_nan=False,
                )
                self._send_body(body.encode("utf-8"), 200, "application/json")
            elif self.path == "/fleet/allocate":
                if not isinstance(payload, Mapping) or "fleet" not in payload:
                    raise SerializationError(
                        "a fleet allocation document needs a 'fleet' section"
                    )
                fleet = fleet_from_dict(payload["fleet"])
                if not fleet.tenants:
                    raise SerializationError("the fleet has no tenants to allocate")
                mode = str(payload.get("mode", "heuristic"))
                with service.sync_admission():
                    outcome, meta = service.fleet_allocate(fleet, mode=mode)
                self._log_fingerprint = meta["fingerprint"]
                self._send_json({**meta, "allocation": outcome.to_dict()})
            elif self.path == "/fleet/tenants":
                if not isinstance(payload, Mapping) or "tenant" not in payload:
                    raise SerializationError(
                        "a tenant arrival document needs a 'tenant' section"
                    )
                tenant = tenant_from_dict(payload["tenant"])
                mode = str(payload.get("mode", "heuristic"))
                with service.sync_admission():
                    outcome, meta = service.fleet_arrival(tenant, mode=mode)
                self._log_fingerprint = meta["fingerprint"]
                self._send_json({**meta, "allocation": outcome.to_dict()}, status=201)
            else:
                self._send_error_json(f"unknown endpoint {self.path!r}", status=404)
        except BackpressureError as error:
            self._send_backpressure(error)
        except SerializationError as error:
            self._send_error_json(str(error), status=400)
        except ValueError as error:
            self._send_error_json(str(error), status=400)
        except RuntimeError as error:
            # "no fleet configured": the request is well-formed but conflicts
            # with the service's current state.
            self._send_error_json(str(error), status=409)
        except Exception as error:  # pragma: no cover - last-resort 500
            self._send_error_json(f"internal error: {error}", status=500)

    def _handle_delete(self) -> None:
        service = self.server.service
        if not self.path.startswith("/fleet/tenants/"):
            self._send_error_json(f"unknown endpoint {self.path!r}", status=404)
            return
        tenant_id = self.path[len("/fleet/tenants/"):]
        try:
            with service.sync_admission():
                outcome, meta = service.fleet_departure(tenant_id)
        except BackpressureError as error:
            self._send_backpressure(error)
        except KeyError as error:
            self._send_error_json(str(error).strip("'\""), status=404)
        except RuntimeError as error:
            self._send_error_json(str(error), status=409)
        else:
            document: dict[str, Any] = {**meta}
            document["allocation"] = None if outcome is None else outcome.to_dict()
            if meta.get("fingerprint"):
                self._log_fingerprint = meta["fingerprint"]
            self._send_json(document)


class AllocationHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server that owns an :class:`AllocationService`.

    ``quiet`` silences the per-request structured JSON access log
    (requests are still counted in ``repro_http_requests_total``).
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: AllocationService,
        quiet: bool = True,
    ):
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[0], self.server_address[1]
        return f"http://{host}:{port}"


def start_server(
    service: AllocationService, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> tuple[AllocationHTTPServer, threading.Thread]:
    """Start a server on a background thread (``port=0`` picks a free port).

    The caller owns shutdown: ``server.shutdown(); server.server_close();
    service.close()``.
    """
    server = AllocationHTTPServer((host, port), service, quiet=quiet)
    thread = threading.Thread(target=server.serve_forever, name="repro-serve", daemon=True)
    thread.start()
    return server, thread


def install_shutdown_signals(server: "ThreadingHTTPServer") -> "Callable[[], None]":
    """Route SIGTERM/SIGINT into a graceful ``server.shutdown()``.

    ``shutdown()`` must run off the signal-handling (main) thread: it blocks
    until ``serve_forever`` -- running *on* the main thread -- notices the
    stop flag, so calling it inline would deadlock.  Returns a restorer that
    puts the previous handlers back (used by embedded/test callers).
    """
    previous = {}

    def _handle(signum: int, frame: Any) -> None:
        threading.Thread(
            target=server.shutdown, name="repro-serve-shutdown", daemon=True
        ).start()

    for signum in (signal.SIGTERM, signal.SIGINT):
        previous[signum] = signal.signal(signum, _handle)

    def _restore() -> None:
        for signum, handler in previous.items():
            signal.signal(signum, handler)

    return _restore


def run_server(
    service: AllocationService, host: str = "127.0.0.1", port: int = 8000, quiet: bool = False
) -> None:
    """Serve until interrupted (the blocking entry point behind ``repro serve``).

    SIGTERM and SIGINT both drain gracefully: the accept loop stops, then
    ``service.close()`` joins the job workers (pending jobs finish),
    final-fsyncs and closes every WAL segment, and closes the store -- so a
    clean shutdown never leaves a torn WAL tail or an abandoned job.
    """
    server = AllocationHTTPServer((host, port), service, quiet=quiet)
    restore = install_shutdown_signals(server)
    print(f"allocation service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    finally:
        restore()
        server.server_close()
        service.close()
