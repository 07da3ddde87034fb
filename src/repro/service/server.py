"""The resident, cache-backed allocation service.

:class:`AllocationService` is the solving engine -- usable directly from
Python (tests, notebooks, the batch API) -- and the application behind
``repro serve``: :mod:`repro.service.frontdoor` routes the HTTP API onto
it (:func:`~repro.service.frontdoor.start_server` /
:func:`~repro.service.frontdoor.run_server`).

The server is a ``ThreadingHTTPServer``: requests are handled concurrently
and meet at the thread-safe :class:`~repro.service.store.ResultStore`.
Batches are solved serially in this process (``--worker-processes`` is the
one parallel axis); async batches drain through a
:class:`~repro.service.jobs.JobQueue` worker pool (``repro serve
--workers N``).

Durability & backpressure: with ``wal`` set the service journals every
async submission to a :class:`~repro.service.wal.JobWal` before the ``202``
ack and replays unfinished jobs through the normal deduping batch path at
startup, so an acknowledged job survives ``kill -9``.  Overload is refused,
not absorbed: a full job queue answers ``429`` and an exhausted sync-solve
pool answers ``503``, both with a ``Retry-After`` header derived from the
actual backlog (see :class:`~repro.service.frontdoor.BackpressureError`).
"""

from __future__ import annotations

import contextlib
import json
import math
import threading
import time
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .. import __version__
from ..core.solution import SolveOutcome, SolveStatus
from ..core.solvers import solve
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
    map_distinct,
    outcome_json,
    request_from_dict,
    requests_from_documents,
    solve_batch,
)
from .frontdoor import (
    BackpressureError,
    FrontDoorHandler,
    HTTPError,
    HTTPRoutes,
    Reply,
    Request,
    json_reply,
    section,
)
from .jobs import JobQueue, QueueClosedError, QueueFullError
from .store import ResultStore
from .wal import JobWal


class AllocationService(HTTPRoutes):
    """Long-running, cache-backed allocation solving engine.

    Parameters
    ----------
    store:
        Result store; defaults to a memory-only store.  Pass one with a
        ``cache_dir`` to survive restarts.
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
        #: Aggregated solver work counters (packer and split-search nodes,
        #: memo hits, ...) over every non-cached solve this service
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
            "Store lookups answered from a cache tier (one per distinct batch fingerprint).",
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
            self.traces.put(fingerprint, trace)
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
        outcomes, report = solve_batch(requests, store=self.store)
        self._accumulate_solver_counters(report.solver_counters)
        with self._lock:
            self._requests += report.total
            self._batches += 1
            self._solves += report.solves
        self._batches_total.inc()
        self._requests_total.inc(report.total)
        self._solves_total.inc(report.solves)
        for tier, hits in (("memory", report.memory_hits), ("disk", report.disk_hits)):
            if hits:
                self._cache_hits_total.labels(tier=tier).inc(hits)
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
        (429) with a backlog-derived retry hint, a closed one (shutdown) a
        503; ``documents`` forwards the already-parsed wire documents so
        the journal skips re-serialising.
        """
        try:
            return self.jobs.submit(requests, documents=documents)
        except QueueFullError as error:
            raise self._reject(
                429, self._retry_after_seconds(error.depth), str(error)
            ) from error
        except QueueClosedError as error:
            raise self._reject(503, 1.0, str(error)) from error

    def submit_batch_documents(
        self, documents: list[Any], texts: Sequence[str] | None = None
    ) -> dict[str, Any]:
        """:meth:`submit_batch` of wire documents (``texts``: their source
        texts, see :func:`~repro.service.batch.loads_batch`).  The WAL
        journals exactly what the client sent, no re-serialisation."""
        requests = requests_from_documents(documents, texts)
        return self.submit_batch(requests, documents=documents)

    def solve_batch_text(self, documents: list[Any], texts: Sequence[str] | None = None) -> str:
        """The sync ``/solve_batch`` response text of wire documents: each
        distinct outcome is encoded once and spliced into the array."""
        requests = requests_from_documents(documents, texts)
        with self.sync_admission():
            outcomes, report = self.solve_batch(requests)
        return json_with_array(
            {"report": report.as_dict(), "fingerprints": report.fingerprints},
            "outcomes",
            map_distinct(outcomes, outcome_json),
            allow_nan=False,
        )

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

    # ------------------------------------------------------------------ #
    # HTTP routes answered by the solver (the rest are in HTTPRoutes)
    # ------------------------------------------------------------------ #
    def http_solve(self, request: Request) -> Reply:
        solve_request = request_from_dict(request.parse()[0])
        with self.sync_admission():
            outcome, meta = self.solve_request(solve_request)
        return json_reply({**meta, "outcome": outcome.to_dict()}, fingerprint=meta["fingerprint"])

    def http_fleet_allocate(self, request: Request) -> Reply:
        payload, _ = request.parse()
        fleet = fleet_from_dict(
            section(payload, "fleet", "a fleet allocation document needs a 'fleet' section")
        )
        if not fleet.tenants:
            raise SerializationError("the fleet has no tenants to allocate")
        mode = str(payload.get("mode", "heuristic"))
        with self.sync_admission():
            outcome, meta = self.fleet_allocate(fleet, mode=mode)
        return json_reply({**meta, "allocation": outcome.to_dict()}, fingerprint=meta["fingerprint"])

    def http_fleet_arrival(self, request: Request) -> Reply:
        payload, _ = request.parse()
        tenant = tenant_from_dict(
            section(payload, "tenant", "a tenant arrival document needs a 'tenant' section")
        )
        mode = str(payload.get("mode", "heuristic"))
        with self.sync_admission():
            outcome, meta = self.fleet_arrival(tenant, mode=mode)
        return json_reply(
            {**meta, "allocation": outcome.to_dict()}, status=201, fingerprint=meta["fingerprint"]
        )

    def http_fleet_departure(self, request: Request) -> Reply:
        try:
            with self.sync_admission():
                outcome, meta = self.fleet_departure(request.tail)
        except KeyError as error:
            raise HTTPError(404, str(error).strip("'\"")) from error
        document = {**meta, "allocation": None if outcome is None else outcome.to_dict()}
        return json_reply(document, fingerprint=meta.get("fingerprint"))

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

    def health(self) -> dict[str, Any]:
        return {"status": "ok", "uptime_seconds": time.time() - self.started_unix}

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
            solver = dict(self._solver_counters)
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


class _ServiceRequestHandler(FrontDoorHandler):
    """The front door's handler under its single-process name."""
