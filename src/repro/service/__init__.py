"""Allocation-as-a-service: fingerprints, result cache, batch API, server.

The service layer turns the one-shot solver stack into a long-running,
cache-backed engine:

* :mod:`repro.service.canonical` -- stable content fingerprints of
  ``(problem, method, settings)`` requests;
* :mod:`repro.service.store` -- bounded in-memory LRU + on-disk SQLite
  result tiers;
* :mod:`repro.service.batch` -- deduped, memo-grouped batch solving;
* :mod:`repro.service.jobs` -- the async batch job queue and worker pool;
* :mod:`repro.service.wal` -- the segmented write-ahead job journal that
  makes async acks durable across ``kill -9``;
* :mod:`repro.service.faults` -- seeded fault injection (crashes, IO
  errors, latency) at named sites, for the durability test harness;
* :mod:`repro.service.server` -- the resident, cache-backed service;
* :mod:`repro.service.frontdoor` -- the HTTP JSON API of both topologies:
  one route table, request handler, error map and threading server;
* :mod:`repro.service.client` -- a small stdlib client (sync + async polls)
  with capped-exponential retry/backoff on 429/503;
* :mod:`repro.service.hashing` -- the consistent hash ring mapping request
  fingerprints onto shard groups (minimal remap on resize);
* :mod:`repro.service.pool` -- the shard-group worker *processes*: spawn,
  heartbeat, graceful drain, crash restart + WAL replay;
* :mod:`repro.service.router` -- the application that routes the whole HTTP
  API across the pool and aggregates /stats and /metrics.
"""

from .batch import BatchReport, SolveRequest, request_from_dict, request_to_dict, solve_batch
from .canonical import canonical_json, canonical_request, fingerprint, group_key
from .client import RetryPolicy, ServiceClient, ServiceError
from .faults import (
    FaultInjector,
    FaultPlanError,
    FaultSpec,
    InjectedIOError,
    parse_fault_plan,
    set_injector,
)
from .hashing import DEFAULT_REPLICAS, HashRing, ring, ring_of
from .jobs import Job, JobQueue, QueueFullError
from .frontdoor import (
    MAX_BODY_BYTES,
    ROUTES,
    AllocationHTTPServer,
    BackpressureError,
    run_server,
    start_server,
)
from .pool import WorkerPool, WorkerSpec, build_worker_service, group_dir, worker_main
from .router import RouterService, WorkerUnavailableError, merge_prometheus, start_router
from .server import AllocationService
from .store import (
    CacheStats,
    MemoryTier,
    ResultStore,
    SqliteTier,
    StoreLimits,
    StoreLookup,
)
from .wal import JobWal, WalError, WalSegment, decode_records, encode_record

__all__ = [
    "AllocationHTTPServer",
    "AllocationService",
    "BackpressureError",
    "BatchReport",
    "CacheStats",
    "DEFAULT_REPLICAS",
    "FaultInjector",
    "FaultPlanError",
    "FaultSpec",
    "HashRing",
    "InjectedIOError",
    "Job",
    "JobQueue",
    "JobWal",
    "MAX_BODY_BYTES",
    "MemoryTier",
    "QueueFullError",
    "ROUTES",
    "ResultStore",
    "RetryPolicy",
    "RouterService",
    "ServiceClient",
    "ServiceError",
    "SolveRequest",
    "SqliteTier",
    "StoreLimits",
    "StoreLookup",
    "WalError",
    "WalSegment",
    "WorkerPool",
    "WorkerSpec",
    "WorkerUnavailableError",
    "build_worker_service",
    "canonical_json",
    "canonical_request",
    "decode_records",
    "encode_record",
    "fingerprint",
    "group_dir",
    "group_key",
    "merge_prometheus",
    "parse_fault_plan",
    "request_from_dict",
    "request_to_dict",
    "ring",
    "ring_of",
    "run_server",
    "set_injector",
    "solve_batch",
    "start_router",
    "start_server",
    "worker_main",
]
