#!/usr/bin/env python3
"""Load generator for the allocation service (and the CI smoke check).

Issues a batch of ``--requests`` solve requests containing exactly
``--unique`` distinct problems (the rest are duplicates), then replays the
same batch one request at a time to exercise the single-solve path on a warm
cache.  With ``--check`` the script asserts what the service must guarantee:

* the batch performed exactly ``--unique`` solves (dedupe works),
* the warm replay performed zero solves (the cache answers),
* the reported cache counters are consistent with the traffic,
* ``/metrics`` counts requests, solves and cache hits exactly as ``/stats``
  does (summed over the ``worker`` labels behind the router).

Point it at a running server with ``--url``, or let it spawn one on an
ephemeral port with ``--spawn`` (the mode CI uses)::

    PYTHONPATH=src python examples/service_load_generator.py \
        --spawn --requests 100 --unique 12 --check

``--worker-processes N`` spawns the multi-process topology (one shard-group
worker per process behind the consistent-hashing router) instead of the
single-process server, and ``--client-processes M`` drives the warm replay
from ``M`` independent OS processes, reporting per-process and aggregate
request rates::

    PYTHONPATH=src python examples/service_load_generator.py \
        --spawn --worker-processes 4 --client-processes 4 \
        --requests 200 --unique 16 --check
"""

from __future__ import annotations

import argparse
import multiprocessing
import os
import random
import subprocess
import sys
import time

from repro import aws_f1, alexnet_fx16, AllocationProblem
from repro.obs.metrics import validate_prometheus_text
from repro.reporting.service import batch_report_table, cache_stats_table
from repro.service import ServiceClient, ServiceError, SolveRequest


def metric_total(text: str, name: str, **labels: str) -> float:
    """Sum of the ``/metrics`` samples of ``name`` carrying ``labels``
    (every ``worker`` label included)."""
    wanted = [f'{key}="{value}"' for key, value in labels.items()]
    total = 0.0
    for line in text.splitlines():
        sample, _, value = line.rpartition(" ")
        if sample.split("{", 1)[0] == name and all(label in sample for label in wanted):
            total += float(value)
    return total


def counter_mismatches(stats: dict, metrics_text: str) -> list[str]:
    """Where the ``/metrics`` counters disagree with ``/stats``."""
    pairs = [
        ("repro_requests_total", {}, stats["service"]["requests"]),
        ("repro_solves_total", {}, stats["service"]["solves"]),
    ] + [
        ("repro_cache_hits_total", {"tier": tier}, stats["cache"][f"{tier}_hits"])
        for tier in ("memory", "disk")
    ]
    return [
        f"{name}{labels or ''} = {metric_total(metrics_text, name, **labels):g}, /stats {expected}"
        for name, labels, expected in pairs
        if metric_total(metrics_text, name, **labels) != expected
    ]


def build_requests(count: int, unique: int, seed: int) -> list[SolveRequest]:
    """``count`` requests drawn (shuffled) from ``unique`` distinct problems."""
    base = AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=aws_f1(num_fpgas=2, resource_limit_percent=70.0),
    )
    problems = [base.with_resource_constraint(40.0 + index * 50.0 / unique) for index in range(unique)]
    generator = random.Random(seed)
    chosen = [problems[index % unique] for index in range(count)]
    generator.shuffle(chosen)
    return [SolveRequest(problem=problem) for problem in chosen]


def wait_for_health(client: ServiceClient, timeout_seconds: float = 30.0) -> None:
    deadline = time.time() + timeout_seconds
    while True:
        try:
            client.health()
            return
        except ServiceError:
            if time.time() > deadline:
                raise
            time.sleep(0.2)


def spawn_server(
    port: int,
    workers: int = 1,
    trace: bool = False,
    worker_processes: int = 1,
    data_dir: str | None = None,
) -> subprocess.Popen:
    environment = dict(os.environ)
    source_root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    existing = environment.get("PYTHONPATH", "")
    environment["PYTHONPATH"] = source_root + (os.pathsep + existing if existing else "")
    command = [
        sys.executable, "-m", "repro", "serve", "--port", str(port),
        "--workers", str(workers), "--quiet",
    ]
    if worker_processes > 1:
        command += ["--worker-processes", str(worker_processes)]
        if data_dir is not None:
            command += ["--data-dir", data_dir]
    if trace:
        command.append("--trace")
    return subprocess.Popen(command, env=environment)


def warm_replay_worker(job: "tuple[str, int, int, int, int]") -> dict:
    """One closed-loop client process: replay the warm stream over /solve.

    Runs in a child process (module-level so the spawn context can pickle
    it); rebuilds its request stream from the shared seed so every client
    hammers the same keyspace.
    """
    url, count, unique, seed, process_index = job
    client = ServiceClient(url)
    requests = build_requests(count, unique, seed)
    latencies: list[float] = []
    solver_answers = 0
    start = time.perf_counter()
    for request in requests:
        response = client.solve(request.problem, method=request.method)
        latencies.append(response["latency_ms"])
        solver_answers += response["cache"] == "solver"
    elapsed = time.perf_counter() - start
    latencies.sort()
    return {
        "process": process_index,
        "requests": len(requests),
        "seconds": elapsed,
        "p50_ms": latencies[len(latencies) // 2],
        "p99_ms": latencies[int(len(latencies) * 0.99) - 1],
        "solver_answers": solver_answers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--url", default=None, help="base URL of a running service")
    parser.add_argument("--spawn", action="store_true", help="spawn a server subprocess")
    parser.add_argument("--port", type=int, default=8971, help="port used with --spawn")
    parser.add_argument("--requests", type=int, default=100, help="requests per batch")
    parser.add_argument("--unique", type=int, default=12, help="distinct problems in the batch")
    parser.add_argument("--seed", type=int, default=7, help="shuffle seed")
    parser.add_argument("--mode", choices=("sync", "async"), default="sync",
                        help="drive /solve_batch synchronously or through the job queue")
    parser.add_argument("--workers", type=int, default=1, help="async job workers (with --spawn)")
    parser.add_argument("--trace", action="store_true",
                        help="enable solve tracing on the spawned server and check /trace")
    parser.add_argument("--worker-processes", type=int, default=1,
                        help="shard-group worker processes (with --spawn): > 1 "
                             "serves through the pool + router topology")
    parser.add_argument("--data-dir", default=None,
                        help="per-group data directory root (with --worker-processes > 1)")
    parser.add_argument("--client-processes", type=int, default=1,
                        help="drive the warm replay from this many OS processes")
    parser.add_argument("--check", action="store_true", help="fail unless dedupe/cache stats hold")
    args = parser.parse_args()
    if args.requests < args.unique:
        parser.error("--requests must be >= --unique")
    if not args.spawn and args.url is None:
        parser.error("pass --url or --spawn")

    process: subprocess.Popen | None = None
    try:
        if args.spawn:
            process = spawn_server(
                args.port,
                workers=args.workers,
                trace=args.trace,
                worker_processes=args.worker_processes,
                data_dir=args.data_dir,
            )
            args.url = f"http://127.0.0.1:{args.port}"
        client = ServiceClient(args.url)
        wait_for_health(client)

        requests = build_requests(args.requests, args.unique, args.seed)

        start = time.perf_counter()
        submit_seconds = None
        if args.mode == "async":
            submitted = client.solve_batch_async(requests)
            submit_seconds = time.perf_counter() - start
            finished = client.wait_for_job(submitted["job_id"], timeout_seconds=600.0)
            if finished["status"] != "done":
                print(f"async job {submitted['job_id']} failed: "
                      f"{finished.get('error', 'unknown error')}")
                return 1
            report = finished["report"]
        else:
            _, report = client.solve_batch_outcomes(requests)
        batch_seconds = time.perf_counter() - start
        print(batch_report_table(report).render())
        if submit_seconds is not None:
            print(f"first job id after {submit_seconds * 1000:.2f} ms")
        print(f"batch wall time: {batch_seconds:.3f} s "
              f"({args.requests / batch_seconds:.0f} requests/s)\n")

        if args.client_processes > 1:
            jobs = [
                (args.url, args.requests, args.unique, args.seed, index)
                for index in range(args.client_processes)
            ]
            context = multiprocessing.get_context("spawn")
            replay_start = time.perf_counter()
            with context.Pool(args.client_processes) as clients:
                results = clients.map(warm_replay_worker, jobs)
            replay_wall = time.perf_counter() - replay_start
            warm_solver_answers = sum(row["solver_answers"] for row in results)
            for row in sorted(results, key=lambda r: r["process"]):
                print(f"client {row['process']}: {row['requests']} requests in "
                      f"{row['seconds']:.3f} s ({row['requests'] / row['seconds']:.0f} req/s, "
                      f"p50 {row['p50_ms']:.3f} ms, p99 {row['p99_ms']:.3f} ms)")
            total_requests = sum(row["requests"] for row in results)
            print(f"aggregate: {total_requests} requests over {args.client_processes} "
                  f"client processes in {replay_wall:.3f} s "
                  f"({total_requests / replay_wall:.0f} req/s)\n")
        else:
            warm_latencies = []
            warm_solver_answers = 0
            for request in requests:
                response = client.solve(request.problem, method=request.method)
                warm_latencies.append(response["latency_ms"])
                warm_solver_answers += response["cache"] == "solver"
            warm_latencies.sort()
            p50 = warm_latencies[len(warm_latencies) // 2]
            p99 = warm_latencies[int(len(warm_latencies) * 0.99) - 1]
            print(f"warm /solve replay: p50 {p50:.3f} ms, p99 {p99:.3f} ms, "
                  f"{warm_solver_answers} solver answers\n")

        stats = client.stats()
        print(cache_stats_table(stats["cache"]).render())

        retry = client.retry_stats
        print(f"\nclient retries: {retry['retries']:.0f} over {retry['attempts']:.0f} attempts "
              f"(429: {retry['rejected_429']:.0f}, 503: {retry['rejected_503']:.0f}, "
              f"connection errors: {retry['connection_errors']:.0f}, "
              f"backoff {retry['backoff_seconds']:.2f} s)")

        # Scrape /metrics and validate the Prometheus exposition format.
        metrics_text = client.metrics()
        metrics_problems = validate_prometheus_text(metrics_text)
        mismatches = counter_mismatches(stats, metrics_text)
        solve_hist_populated = "repro_cache_hit_latency_seconds_bucket" in metrics_text
        print(f"\n/metrics: {len(metrics_text.splitlines())} lines, "
              f"{len(metrics_problems)} format problems, "
              f"{len(mismatches)} counters disagreeing with /stats")
        missing_worker_labels = []
        if args.worker_processes > 1:
            missing_worker_labels = [
                f'worker="g{group}"'
                for group in range(args.worker_processes)
                if f'worker="g{group}"' not in metrics_text
            ]
            if f'worker="router"' not in metrics_text:
                missing_worker_labels.append('worker="router"')
            label_note = ("all present" if not missing_worker_labels
                          else f"missing {missing_worker_labels}")
            print(f"per-worker metric labels: {label_note}")

        trace_document = None
        if args.trace:
            fingerprint = client.solve(requests[0].problem, method=requests[0].method)[
                "fingerprint"
            ]
            trace_document = client.trace(fingerprint)
            print(f"/trace/{fingerprint[:12]}...: "
                  f"root '{trace_document['root']['name']}', "
                  f"{trace_document['duration_seconds'] * 1000:.3f} ms")

        if args.check:
            failures = []
            if metrics_problems:
                failures.append(f"/metrics format problems: {metrics_problems[:3]}")
            if mismatches:
                failures.append(f"/metrics disagrees with /stats: {mismatches}")
            if not solve_hist_populated:
                failures.append("latency histograms absent from /metrics after replay")
            if missing_worker_labels:
                failures.append(f"/metrics lacks per-worker labels: {missing_worker_labels}")
            if args.trace and trace_document is None:
                failures.append("tracing requested but no trace came back")
            if submit_seconds is not None:
                # Over HTTP the submit cost is dominated by parsing the N
                # problem documents in the request body; the < 5 ms bound on
                # the queue's own submit path is asserted in-process by
                # benchmarks/test_service_throughput.py.  Here: the job id
                # must come back long before the batch itself resolves, and
                # within a per-request parse budget.
                if submit_seconds >= max(0.5 * batch_seconds, 0.002 * args.requests):
                    failures.append(
                        f"async submit took {submit_seconds * 1000:.2f} ms "
                        f"(batch {batch_seconds * 1000:.2f} ms)"
                    )
            if report["solves"] != args.unique:
                failures.append(f"batch solves {report['solves']} != unique {args.unique}")
            if report["duplicates"] != args.requests - args.unique:
                failures.append(f"duplicates {report['duplicates']} wrong")
            if warm_solver_answers != 0:
                failures.append(f"{warm_solver_answers} warm requests missed every cache tier")
            if stats["cache"]["puts"] != args.unique:
                failures.append(f"cache puts {stats['cache']['puts']} != unique {args.unique}")
            if stats["service"]["solves"] != args.unique:
                failures.append(f"service solves {stats['service']['solves']} != {args.unique}")
            if failures:
                print("\nCHECK FAILED:\n  " + "\n  ".join(failures))
                return 1
            print("\nCHECK PASSED: "
                  f"{args.requests} requests -> {args.unique} solves, warm replay fully cached")
        return 0
    finally:
        if process is not None:
            process.terminate()
            process.wait(timeout=10)


if __name__ == "__main__":
    raise SystemExit(main())
