"""Command-line interface.

Three sub-commands cover the common workflows::

    repro-fpga solve --app alex-16 --fpgas 2 --resource 70 --method gp+a
    repro-fpga solve --app alex-16 --platform-spec fleet.json --method minlp
    repro-fpga experiment table2
    repro-fpga experiment figure3 --output figure3.csv
    repro-fpga experiment figure2 --jobs 4   # sweep on a 4-worker process pool
    repro-fpga experiment hetero-skew        # heterogeneous class-skew sweep
    repro-fpga serve --port 8000 --cache-dir ~/.cache/repro-fpga
    repro-fpga serve --worker-processes 4 --data-dir /var/lib/repro-fpga
    repro-fpga serve --workers 4 --cache-cap 268435456 --cache-ttl 86400
    repro-fpga serve --trace --quiet          # record solve traces, no access log
    repro-fpga fleet --tenants 3 --classes 2,2   # multi-tenant fleet allocation
    repro-fpga fleet --spec fleet.json --mode exact
    repro-fpga trace --output traces.jsonl    # traced runtime table + span breakdown
    repro-fpga trace --gate                   # assert traced wall vs the perf gate

``--platform-spec`` points at a JSON platform document (written by
``repro.workloads.serialization.save_platform``); a document with a
``classes`` list describes a heterogeneous fleet of device classes.

``serve`` starts the long-running allocation service: an HTTP JSON API
(``/solve``, ``/solve_batch`` with sync and async modes, ``/jobs``,
``/health``, ``/stats``, ``/fleet``) backed by the fingerprint-keyed result
cache of :mod:`repro.service` -- bounded (``--cache-cap``/``--cache-ttl``)
and drained by an async job worker pool (``--workers``).  One process
solves its batches serially; ``--worker-processes`` is the one way to use
more CPUs: it scales out over worker processes behind a router that
serves the same API.

``python -m repro`` is equivalent to ``repro-fpga``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .core.exact import ExactSettings
from .core.heuristic import HeuristicSettings
from .core.solvers import METHODS, solve
from .explore.executor import ExecutorSettings, SweepExecutor, available_workers
from .reporting import experiments
from .reporting.series import FigureData

_EXPERIMENTS = (
    "table2",
    "table3",
    "table4",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "runtime",
    "hetero-skew",
)


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-fpga",
        description="Exact and heuristic allocation of multi-kernel applications to multi-FPGA platforms",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    solve_parser = subparsers.add_parser("solve", help="solve one allocation problem")
    solve_parser.add_argument(
        "--app",
        choices=sorted(experiments.CASE_STUDIES),
        default="alex-16",
        help="built-in application (AlexNet fx16/fp32 or VGG-16)",
    )
    solve_parser.add_argument("--fpgas", type=int, default=None, help="number of FPGAs (default: the paper's choice)")
    solve_parser.add_argument(
        "--resource",
        type=float,
        default=None,
        help="per-FPGA resource constraint in percent (default: 70)",
    )
    solve_parser.add_argument(
        "--platform-spec",
        type=Path,
        default=None,
        help=(
            "JSON platform spec replacing the built-in platform; supports "
            "heterogeneous fleets via a 'classes' list (see "
            "workloads.serialization.save_platform).  Mutually exclusive "
            "with --fpgas/--resource."
        ),
    )
    solve_parser.add_argument("--method", choices=METHODS, default="gp+a")
    solve_parser.add_argument("--t", type=float, default=0.0, help="heuristic T parameter (percent)")
    solve_parser.add_argument("--delta", type=float, default=1.0, help="heuristic delta parameter (percent)")

    experiment_parser = subparsers.add_parser("experiment", help="regenerate a table or figure of the paper")
    experiment_parser.add_argument("name", choices=_EXPERIMENTS)
    experiment_parser.add_argument("--output", type=Path, default=None, help="write CSV output to this path")
    experiment_parser.add_argument("--quick", action="store_true", help="use a reduced grid for a faster run")
    experiment_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for sweep experiments (0 = one per CPU, 1 = serial)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="run the cache-backed allocation service over HTTP"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument("--port", type=int, default=8000, help="TCP port (0 = ephemeral)")
    serve_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="directory for the on-disk result tier (omit for a memory-only cache)",
    )
    serve_parser.add_argument(
        "--memory-capacity",
        type=int,
        default=4096,
        help="entries held by the in-memory LRU tier (per store)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="background worker threads draining async /solve_batch jobs",
    )
    serve_parser.add_argument(
        "--cache-cap",
        type=int,
        default=None,
        help="byte cap on the on-disk result tier (oldest entries evicted; omit for unbounded)",
    )
    serve_parser.add_argument(
        "--cache-ttl",
        type=float,
        default=None,
        help="seconds before a cached result expires (omit for no expiry)",
    )
    serve_parser.add_argument(
        "--wal-dir",
        type=Path,
        default=None,
        help="directory for the job write-ahead log: async submissions are fsynced "
        "before the ack and replayed after a crash (omit to disable durability)",
    )
    serve_parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="async jobs admitted to the queue before submissions get 429 + "
        "Retry-After (omit for unbounded)",
    )
    serve_parser.add_argument(
        "--max-inflight-solves",
        type=int,
        default=None,
        help="concurrent synchronous solve calls before requests are shed with "
        "503 (omit for unbounded)",
    )
    serve_parser.add_argument(
        "--worker-processes",
        type=int,
        default=1,
        help="shard-group worker processes behind a routing front-end "
        "(1 = the classic single-process server; N > 1 spawns N workers, "
        "each owning its group's cache + WAL under --data-dir, routed by "
        "consistent hashing)",
    )
    serve_parser.add_argument(
        "--data-dir",
        type=Path,
        default=None,
        help="root directory of the per-group cache/WAL tree used with "
        "--worker-processes > 1 (a temporary directory is used if omitted; "
        "pass a persistent path to survive restarts)",
    )
    serve_parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace per solve (served at /trace/<fingerprint>; "
        "also enabled by REPRO_TRACE=1)",
    )
    serve_parser.add_argument(
        "--quiet",
        action="store_true",
        help="silence the structured JSON access log on stderr",
    )

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="allocate a multi-tenant fleet (shared device pool, weighted min-max fairness)",
    )
    fleet_parser.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="JSON fleet document (see repro.fleet.state.fleet_to_dict); "
        "omit to use a generated synthetic fleet",
    )
    fleet_parser.add_argument(
        "--tenants", type=int, default=3, help="synthetic fleet: number of tenants"
    )
    fleet_parser.add_argument(
        "--classes",
        default="2,2",
        help="synthetic fleet: comma-separated device count per class (e.g. 2,2)",
    )
    fleet_parser.add_argument(
        "--kernels", type=int, default=2, help="synthetic fleet: kernels per tenant app"
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=0, help="synthetic fleet: generator seed"
    )
    fleet_parser.add_argument(
        "--mode",
        choices=("heuristic", "exact", "both"),
        default="both",
        help="allocation mode; 'both' also prints the quality comparison",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help="solve the runtime-table rows under tracing and print span breakdowns",
    )
    trace_parser.add_argument(
        "--resource",
        type=float,
        default=70.0,
        help="per-FPGA resource constraint in percent",
    )
    trace_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the recorded traces as JSON lines to this path",
    )
    trace_parser.add_argument(
        "--gate",
        action="store_true",
        help="also run the benchmark-shaped runtime table traced (warm) and "
        "assert its wall clock against the newest git-tracked BENCH_<rev>.json "
        "at 1.3x",
    )

    return parser


def _executor_for(jobs: int) -> SweepExecutor:
    """Build the sweep executor requested by ``--jobs``."""
    if jobs == 0:
        jobs = available_workers()
    if jobs <= 1:
        return SweepExecutor(ExecutorSettings(parallel=False))
    return SweepExecutor(ExecutorSettings(parallel=True, max_workers=jobs))


def _run_solve(args: argparse.Namespace) -> int:
    resource = 70.0 if args.resource is None else args.resource
    problem = experiments.case_study(args.app, resource_limit_percent=resource)
    if args.platform_spec is not None:
        if args.fpgas is not None or args.resource is not None:
            print(
                "--platform-spec and --fpgas/--resource are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        from .workloads.serialization import SerializationError, load_platform

        try:
            platform = load_platform(args.platform_spec)
        except (OSError, SerializationError) as error:
            print(f"cannot load platform spec {args.platform_spec}: {error}", file=sys.stderr)
            return 2
        problem = type(problem)(
            pipeline=problem.pipeline, platform=platform, weights=problem.weights
        )
        print(f"platform: {platform.describe()}")
    elif args.fpgas is not None:
        problem = type(problem)(
            pipeline=problem.pipeline,
            platform=problem.platform.with_num_fpgas(args.fpgas),
            weights=problem.weights,
        )
    outcome = solve(
        problem,
        method=args.method,
        heuristic_settings=HeuristicSettings(t_percent=args.t, delta_percent=args.delta),
    )
    print(outcome.summary())
    if outcome.solution is not None:
        print()
        print(outcome.solution.describe())
        return 0
    reason = outcome.details.get("reason", "no solution")
    print(f"no allocation found: {reason}")
    return 1


def _write_or_print(text: str, output: Path | None) -> None:
    if output is None:
        print(text)
    else:
        output.write_text(text + "\n")
        print(f"wrote {output}")


def _run_experiment(args: argparse.Namespace) -> int:
    name = args.name
    executor = _executor_for(args.jobs)
    if name == "table2":
        _write_or_print(experiments.table2().render(), args.output)
    elif name == "table3":
        _write_or_print(experiments.table3().render(), args.output)
    elif name == "table4":
        _write_or_print(experiments.table4().render(), args.output)
    elif name == "figure2":
        constraints = (50, 60, 70, 80, 90) if args.quick else tuple(range(40, 91, 5))
        t_values = (0.0, 10.0, 30.0) if args.quick else (0.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        figure = experiments.figure2(constraints=constraints, t_values=t_values, executor=executor)
        _emit_figure(figure, args.output)
    elif name in ("figure3", "figure4", "figure5"):
        driver = getattr(experiments, name)
        methods = ("gp+a", "minlp") if args.quick else ("gp+a", "minlp", "minlp+g")
        result = driver(methods=methods, executor=executor)
        _emit_figure(result.versus_constraint, args.output)
        _emit_figure(result.versus_utilization, None)
    elif name == "figure6":
        methods = ("gp+a", "minlp") if args.quick else ("gp+a", "minlp", "minlp+g")
        tables = experiments.figure6(methods=methods)
        text = "\n\n".join(table.render() for table in tables.values())
        _write_or_print(text, args.output)
    elif name == "runtime":
        methods = ("gp+a", "minlp") if args.quick else ("gp+a", "minlp", "minlp+g")
        _write_or_print(
            experiments.runtime_table(methods=methods, executor=executor).render(), args.output
        )
    elif name == "hetero-skew":
        skews = (0.0, 10.0, 20.0) if args.quick else (0.0, 5.0, 10.0, 15.0, 20.0, 25.0)
        figure = experiments.hetero_skew(skews=skews, executor=executor)
        _emit_figure(figure, args.output)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(name)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    # Imported here so plain solve/experiment invocations stay lean.
    from .reporting.service import service_stats_table
    from .service import (
        AllocationService,
        ResultStore,
        StoreLimits,
        run_server,
    )

    if args.worker_processes < 1:
        print("--worker-processes must be >= 1", file=sys.stderr)
        return 2
    if args.worker_processes > 1:
        return _run_serve_pool(args)
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    limits = StoreLimits(
        memory_entries=args.memory_capacity,
        disk_bytes=args.cache_cap,
        ttl_seconds=args.cache_ttl,
    )
    store = ResultStore(cache_dir=args.cache_dir, limits=limits)
    service = AllocationService(
        store=store,
        job_workers=args.workers,
        tracing=True if args.trace else None,
        wal=args.wal_dir,
        max_queue_depth=args.max_queue_depth,
        max_inflight_solves=args.max_inflight_solves,
    )
    tier = f"memory+disk ({args.cache_dir})" if args.cache_dir else "memory-only"
    durability = f"wal ({args.wal_dir})" if args.wal_dir else "none"
    print(
        f"result cache: {tier}; "
        f"async job workers: {args.workers}; tracing: "
        f"{'on' if service.tracing else 'off'}; durability: {durability}",
        flush=True,
    )
    if service.recovered_jobs:
        print(
            f"wal recovery: re-enqueued {service.recovered_jobs} unfinished "
            f"job(s) from {args.wal_dir}",
            flush=True,
        )
    try:
        run_server(service, host=args.host, port=args.port, quiet=args.quiet)
    finally:
        print(service_stats_table(service.stats()).render())
    return 0


def _run_serve_pool(args: argparse.Namespace) -> int:
    """``repro serve --worker-processes N``: the pool + router topology."""
    import json as _json
    import tempfile

    from .service import RouterService, WorkerPool, WorkerSpec, run_server

    if args.cache_dir is not None or args.wal_dir is not None:
        print(
            "--cache-dir/--wal-dir apply to the single-process server; with "
            "--worker-processes > 1 each group owns cache/ and wal/ under "
            "--data-dir",
            file=sys.stderr,
        )
        return 2
    if args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    data_dir = args.data_dir
    if data_dir is None:
        data_dir = Path(tempfile.mkdtemp(prefix="repro-pool-"))
        print(
            f"warning: no --data-dir given; group caches/WALs live in the "
            f"temporary directory {data_dir} and do not survive restarts",
            file=sys.stderr,
        )
    spec = WorkerSpec(
        group=0,
        data_dir="",
        host=args.host,
        job_workers=args.workers,
        memory_capacity=args.memory_capacity,
        cache_cap=args.cache_cap,
        cache_ttl=args.cache_ttl,
        max_queue_depth=args.max_queue_depth,
        max_inflight_solves=args.max_inflight_solves,
        tracing=True if args.trace else None,
        quiet=True,
    )

    def on_event(event: str, group: int) -> None:
        print(
            _json.dumps({"event": f"worker_{event}", "group": group}),
            file=sys.stderr,
            flush=True,
        )

    pool = WorkerPool(
        args.worker_processes,
        data_dir,
        spec=spec,
        on_event=None if args.quiet else on_event,
    )
    pool.start()
    router = RouterService(pool)
    print(
        f"worker pool: {args.worker_processes} shard-group processes under "
        f"{data_dir}; async job workers: {args.workers}; durability: per-group wal",
        flush=True,
    )
    run_server(router, host=args.host, port=args.port, quiet=args.quiet)
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: allocate a multi-tenant fleet and print the tables."""
    import json as _json

    from .fleet import FleetSolveMemo, allocate_fleet, fleet_from_dict
    from .reporting.fleet import (
        fairness_table,
        fleet_allocation_table,
        fleet_comparison_table,
    )
    from .workloads.serialization import SerializationError
    from .workloads.tenants import synthetic_fleet

    if args.spec is not None:
        try:
            fleet = fleet_from_dict(_json.loads(args.spec.read_text()))
        except (OSError, ValueError, SerializationError) as error:
            print(f"cannot load fleet spec {args.spec}: {error}", file=sys.stderr)
            return 2
    else:
        try:
            class_counts = tuple(int(part) for part in args.classes.split(","))
        except ValueError:
            print(f"--classes must be comma-separated integers, got {args.classes!r}", file=sys.stderr)
            return 2
        fleet = synthetic_fleet(
            num_tenants=args.tenants,
            class_counts=class_counts,
            kernels_per_tenant=args.kernels,
            seed=args.seed,
        )
    if not fleet.tenants:
        print("the fleet has no tenants to allocate", file=sys.stderr)
        return 2
    print(fleet.describe())
    print()
    memo = FleetSolveMemo()  # shared: the exact search reuses heuristic solves
    modes = ("heuristic", "exact") if args.mode == "both" else (args.mode,)
    outcomes = {}
    for mode in modes:
        outcome = allocate_fleet(fleet, mode=mode, memo=memo)
        outcomes[mode] = outcome
        print(fleet_allocation_table(outcome).render())
        print(fairness_table(outcome, title=f"Fairness ({mode})").render())
        print()
    if args.mode == "both":
        print(fleet_comparison_table(outcomes["heuristic"], outcomes["exact"]).render())
    final = outcomes[modes[-1]]
    if not final.succeeded:
        print("no feasible fleet allocation found", file=sys.stderr)
        return 1
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """``repro trace``: traced runtime-table rows + span-breakdown tables."""
    from .obs.trace import write_traces_jsonl
    from .reporting.trace import (
        span_breakdown_table,
        traced_runtime_rows,
        traced_runtime_table,
    )

    rows = traced_runtime_rows(resource_constraint=args.resource)
    for row in rows:
        title = f"{row['case']} / {row['method']} ({row['wall_seconds']:.3f} s)"
        print(span_breakdown_table(row["trace"], title=title).render())
        print()
    print(traced_runtime_table(rows).render())
    if args.output is not None:
        write_traces_jsonl([row["trace"] for row in rows], str(args.output))
        print(f"wrote {args.output}")

    # Acceptance bar: every row's top-level phases cover >= 90% of its wall.
    exit_code = 0
    uncovered = [row for row in rows if row["trace"].coverage() < 0.9]
    for row in uncovered:
        print(
            f"FAIL: {row['case']}/{row['method']} phases cover only "
            f"{100.0 * row['trace'].coverage():.1f}% of the wall clock",
            file=sys.stderr,
        )
        exit_code = 1

    if args.gate:
        exit_code = max(exit_code, _run_trace_gate())
    return exit_code


def _trace_gate_baseline() -> tuple[Path, float]:
    """The newest git-tracked ``benchmarks/results/BENCH_<rev>.json`` and the
    gate's budget from it (1.3x its runtime-table mean), in seconds.

    Only tracked snapshots count: every local benchmark run writes an
    untracked one, and gating against that would let a checkout loosen its
    own budget.  Raises ``ValueError`` when there is no usable snapshot.
    """
    import json
    import subprocess

    results = Path("benchmarks/results")
    try:
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--", str(results / "BENCH_*.json")],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError) as error:
        raise ValueError(f"cannot list the tracked snapshots in {results}: {error}") from error
    snapshots = sorted(
        (Path(name) for name in listed.split("\0") if name),
        key=lambda path: json.loads(path.read_text()).get("unix_time", 0.0),
    )
    if not snapshots:
        raise ValueError(f"no git-tracked {results}/BENCH_*.json snapshot found")
    snapshot_path = snapshots[-1]
    snapshot = json.loads(snapshot_path.read_text())
    key = "benchmarks/test_runtime_comparison.py::test_runtime_table"
    entry = snapshot.get("benchmarks", {}).get(key)
    if entry is None:
        raise ValueError(f"{snapshot_path} has no {key} entry")
    return snapshot_path, 1.3 * float(entry["mean"])


def _run_trace_gate() -> int:
    """Assert the traced, benchmark-shaped runtime table against the newest
    tracked ``BENCH_<rev>.json`` snapshot at the perf gate's 1.3x threshold.

    Mirrors the benchmark's conditions: same kwargs (``max_nodes=3``) and a
    warm process (one untraced warm-up call), so the comparison isolates
    tracing overhead rather than cold-start costs.
    """
    import time as _time

    from .obs.trace import start_trace
    from .reporting.experiments import runtime_table

    try:
        snapshot_path, budget = _trace_gate_baseline()
    except ValueError as error:
        print(f"trace gate: {error}", file=sys.stderr)
        return 1

    kwargs = dict(
        cases=("alex-16", "alex-32", "vgg-16"),
        methods=("gp+a", "minlp", "minlp+g"),
        resource_constraint=70.0,
        repetitions=1,
        exact_settings=ExactSettings(max_nodes=3, time_limit_seconds=120.0),
    )
    runtime_table(**kwargs)  # warm-up, untraced (the benchmark runs warm)
    with start_trace("runtime_table"):
        start = _time.perf_counter()
        runtime_table(**kwargs)
        elapsed = _time.perf_counter() - start
    verdict = "OK" if elapsed <= budget else "FAIL"
    print(
        f"trace gate [{verdict}]: traced runtime table {elapsed * 1e3:.1f} ms vs "
        f"1.3x snapshot budget {budget * 1e3:.1f} ms ({snapshot_path.name})"
    )
    return 0 if elapsed <= budget else 1


def _emit_figure(figure: FigureData, output: Path | None) -> None:
    if output is not None:
        output.write_text(figure.to_csv() + "\n")
        print(f"wrote {output}")
    print(figure.to_ascii())


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve":
        return _run_solve(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "trace":
        return _run_trace(args)
    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
