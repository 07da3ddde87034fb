"""Multi-process pool benchmarks: the router + shard-group worker topology.

The single-process service saturates one interpreter: the GIL serialises
request parsing, cache lookups and the solver itself.  The worker pool
(PR 9) shards the keyspace across OS processes behind a consistent-hashing
router, so the same 1000-request/64-unique acceptance batch is the yardstick
again, now over real HTTP against real processes:

* the warm async replay rate through a 4-worker pool (the pinned gate row:
  submit + drain + poll of the full batch with every answer cached);
* the 4-worker vs 1-worker warm replay speedup -- the tentpole's scaling
  claim, asserted only where the container actually has >= 4 cores;
* the async submit (ack) latency through the router vs the single-process
  server -- the fan-out and the per-group WAL fsyncs may tax the ack by at
  most 1.5x.

Numbers land in ``BENCH_<rev>.json`` via ``benchmarks/conftest.py``; the
warm replay row is pinned in ``export_bench.PINNED_BENCHMARKS`` at the
standard 1.3x gate.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1
from repro.service import (
    AllocationService,
    RetryPolicy,
    ResultStore,
    ServiceClient,
    SolveRequest,
    WorkerPool,
    WorkerSpec,
    start_server,
)
from repro.service.router import RouterService, start_router
from repro.workloads.alexnet import alexnet_fx16

#: The acceptance scenario shared with ``test_service_throughput.py``.
BATCH_TOTAL = 1000
BATCH_UNIQUE = 64

#: Scaling asserts only run where the pool can actually run in parallel.
PARALLEL_CAPABLE = (os.cpu_count() or 1) >= 4

#: The tentpole's scaling claim on a >= 4-core runner.
SCALING_FLOOR = 2.5

#: The router ack (fan-out + per-group WAL fsync) vs the single-process ack.
SUBMIT_LATENCY_RATIO_BOUND = 1.5


def _requests() -> list[SolveRequest]:
    base = AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0),
    )
    problems = [
        base.with_resource_constraint(40.0 + index * 50.0 / BATCH_UNIQUE)
        for index in range(BATCH_UNIQUE)
    ]
    return [
        SolveRequest(problem=problems[index % BATCH_UNIQUE])
        for index in range(BATCH_TOTAL)
    ]


def _topology(root, num_groups: int):
    spec = WorkerSpec(group=0, data_dir=str(root))
    pool = WorkerPool(num_groups, str(root), spec=spec)
    pool.start()
    router = RouterService(pool)
    server, thread = start_router(router, "127.0.0.1", 0)
    client = ServiceClient(
        f"http://127.0.0.1:{server.server_address[1]}",
        timeout_seconds=120.0,
        retry_policy=RetryPolicy(retries=8, backoff_base_seconds=0.1),
    )
    return pool, router, server, thread, client


def _teardown(router, server, thread) -> None:
    server.shutdown()
    thread.join(timeout=30.0)
    server.server_close()
    router.close()


def _warm_replay_seconds(client: ServiceClient, requests, rounds: int = 3) -> float:
    """Mean wall time of a warm async replay (submit + drain + poll)."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        submitted = client.solve_batch_async(requests)
        finished = client.wait_for_job(submitted["job_id"], timeout_seconds=300.0)
        samples.append(time.perf_counter() - start)
        assert finished["status"] == "done"
        assert finished["report"]["solves"] == 0
    return statistics.fmean(samples)


def test_pool_warm_async_replay_throughput(benchmark, tmp_path):
    """Warm async replay of the acceptance batch through a 4-worker pool.

    The pinned gate row: submit over HTTP, split by ring ownership, drain
    in four processes, merge in request order -- with zero solves.
    """
    requests = _requests()
    pool, router, server, thread, client = _topology(tmp_path, num_groups=4)
    try:
        cold = client.solve_batch_async(requests)
        finished = client.wait_for_job(cold["job_id"], timeout_seconds=300.0)
        assert finished["status"] == "done"
        assert finished["report"]["total"] == BATCH_TOTAL
        assert finished["report"]["unique"] == BATCH_UNIQUE
        assert finished["report"]["solves"] == BATCH_UNIQUE

        def replay():
            submitted = client.solve_batch_async(requests)
            return client.wait_for_job(submitted["job_id"], timeout_seconds=300.0)

        finished = benchmark.pedantic(replay, rounds=3, iterations=1)
        assert finished["report"]["solves"] == 0
        assert finished["report"]["memory_hits"] == BATCH_UNIQUE
        assert len(finished["outcomes"]) == BATCH_TOTAL
        # The batch genuinely fanned out across all four groups.
        stats = client.stats()
        assert stats["router"]["num_groups"] == 4
        assert all(row["healthy"] for row in stats["pool"])
    finally:
        _teardown(router, server, thread)


@pytest.mark.skipif(
    not PARALLEL_CAPABLE,
    reason="scaling floor only holds with >= 4 cores (pool workers share "
    "cores otherwise)",
)
def test_pool_scaling_warm_async_replay_4_vs_1(tmp_path):
    """The tentpole claim: 4 workers sustain >= 2.5x the warm async replay
    rate of 1 worker on a >= 4-core container."""
    requests = _requests()

    pool, router, server, thread, client = _topology(tmp_path / "one", num_groups=1)
    try:
        cold = client.solve_batch_async(requests)
        assert (
            client.wait_for_job(cold["job_id"], timeout_seconds=600.0)["status"]
            == "done"
        )
        single = _warm_replay_seconds(client, requests)
    finally:
        _teardown(router, server, thread)

    pool, router, server, thread, client = _topology(tmp_path / "four", num_groups=4)
    try:
        cold = client.solve_batch_async(requests)
        assert (
            client.wait_for_job(cold["job_id"], timeout_seconds=600.0)["status"]
            == "done"
        )
        pooled = _warm_replay_seconds(client, requests)
    finally:
        _teardown(router, server, thread)

    speedup = single / pooled
    print(
        f"\nwarm async replay: 1 worker {single * 1000:.1f} ms, "
        f"4 workers {pooled * 1000:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= SCALING_FLOOR


def test_pool_submit_latency_vs_single_process(benchmark, tmp_path):
    """The router's async ack (parse + ring split + per-group journaled
    submits, fanned out) vs the single-process server's ack, both over
    HTTP on warm stores.  The pool may tax the ack by at most 1.5x --
    asserted where the cores exist to absorb the fan-out."""
    requests = _requests()
    submits = 10

    def ack_latency(client: ServiceClient) -> float:
        samples = []
        ids = []
        for _ in range(submits):
            start = time.perf_counter()
            submitted = client.solve_batch_async(requests)
            samples.append(time.perf_counter() - start)
            ids.append(submitted["job_id"])
        for job_id in ids:  # drain so close() is quick
            client.wait_for_job(job_id, timeout_seconds=300.0)
        return statistics.median(samples)

    service = AllocationService(
        store=ResultStore(),
        job_workers=1,
        wal=tmp_path / "single-wal",
    )
    single_server, single_thread = start_server(service, port=0)
    try:
        single_client = ServiceClient(
            single_server.url,
            timeout_seconds=120.0,
            retry_policy=RetryPolicy(retries=8, backoff_base_seconds=0.1),
        )
        warm = single_client.solve_batch_async(requests)
        single_client.wait_for_job(warm["job_id"], timeout_seconds=600.0)
        single_ack = ack_latency(single_client)
    finally:
        single_server.shutdown()
        single_thread.join(timeout=30.0)
        single_server.server_close()
        service.close()

    pool, router, server, thread, client = _topology(tmp_path / "pool", num_groups=4)
    try:
        warm = client.solve_batch_async(requests)
        client.wait_for_job(warm["job_id"], timeout_seconds=600.0)

        def measure():
            return ack_latency(client)

        pool_ack = benchmark.pedantic(measure, rounds=1, iterations=1)
    finally:
        _teardown(router, server, thread)

    ratio = pool_ack / single_ack
    print(
        f"\nasync submit ack: single-process {single_ack * 1000:.2f} ms, "
        f"4-worker pool {pool_ack * 1000:.2f} ms, ratio {ratio:.2f}x"
    )
    if PARALLEL_CAPABLE:
        assert ratio <= SUBMIT_LATENCY_RATIO_BOUND
