#!/usr/bin/env python3
"""Client-side benchmark of the allocation service.

Starts a real ``repro serve``, drives it from one closed-loop client and
prints every end-to-end metric by name, unit and sample count, then one JSON
line with the result::

    python3 perfbench/run.py --workload warm-http --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40   # every workload
    python3 perfbench/run.py --workload cold-mix --trace 1          # per-layer run

Workloads:

* ``warm-http``: a single-process server whose cache setup filled with 64
  problems; the client alternates sync and async ``/solve_batch`` calls of
  1000 fresh requests drawn from them.
* ``warm-router``: the same traffic through ``--worker-processes 2``.
* ``cold-mix``: a single-process server; the client alternates a sync
  batch of 16 problems never sent before and one fleet arrival/departure.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` traces every
other pair of ops (see ``layers.py``) and prints the per-layer metrics, the
share of the sync batch latency its stages cover and the tracing overhead.
Outputs are checked as they arrive; any mismatch makes the exit code 1.
``--out FILE`` saves the result with its environment stamp, and
``--compare A B`` compares two saved results, refusing when their
environments differ.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import sys
import time
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SOURCE))

from report import Metric, latency_metrics, median, result_line

WORKLOADS = ("warm-http", "warm-router", "cold-mix")
#: Per-layer metrics every workload reports, with their units.  Layers a
#: workload bypasses report a count (or ratio) of 0.
LAYER_UNITS = {
    "client.encode_ms": "ms", "client.decode_ms": "ms",
    "server.body_parse_ms": "ms", "server.response_encode_ms": "ms",
    "server.batch_ms": "ms",
    "serialization.decode_ms": "ms", "serialization.docs_decoded": "count",
    "canonical.fingerprint_ms": "ms", "canonical.fingerprints": "count",
    "store.lookup_ms": "ms", "store.hit_ratio": "ratio",
    "batch.outcome_decode_ms": "ms", "batch.outcome_encode_ms": "ms",
    "batch.unique_ratio": "ratio",
    "jobs.polls": "count", "router.parts": "count",
    "minlp.lp_solves": "count", "minlp.node_solves": "count",
    "minlp.packer_search_nodes": "count", "core.memo_hits": "count",
    "executor.pool_started": "count",
    "fleet.tenant_solves": "count", "fleet.memo_hit_ratio": "ratio",
    "process.import_s": "s", "process.ready_s": "s",
    "trace.coverage": "ratio", "trace.overhead_ms": "ms",
}
#: Per-layer timings of layers only some workloads use; printed, not part
#: of the result line (a layer a workload bypasses has no time to report).
WORKLOAD_LAYER_UNITS = {
    "jobs.queue_wait_ms": "ms", "jobs.run_ms": "ms", "jobs.drain_ms": "ms",
    "jobs.fetch_ms": "ms", "router.hop_ms": "ms", "hashing.split_ms": "ms",
    "core.gp_a_solve_ms": "ms", "minlp.exact_solve_ms": "ms",
    "executor.map_ms": "ms", "executor.overhead_ms": "ms",
    "fleet.carve_ms": "ms", "fleet.allocate_ms": "ms", "process.cache_fill_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few requests per op and one setup, for smoke tests")
    parser.add_argument("--out", default=None, help="save the result as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None,
                        help="compare two results saved with --out")
    return parser.parse_args(argv)


def end_to_end(name: str, run) -> tuple[list[Metric], list[Metric]]:
    """(metrics of the result line, the workload's own latency metrics).

    The result line holds what every workload has.  The alternate op's
    latency (async batch, fleet event) stays in the log: a fleet event
    takes ~12 ms, and on a 2-CPU VM its median moved from 12 to 17 ms
    between two runs of one seed, more than any bound allows.
    """
    samples = run.ops.samples
    rate = run.answered / run.window_seconds
    ops = sum(run.ops.attempted.values())
    if name == "cold-mix":
        batch = latency_metrics("cold_batch", samples["batch_ms"])
        named = [Metric("cold_solves_per_s", rate, "1/s", ops), *batch,
                 *latency_metrics("fleet_op", samples["fleet_ms"])]
    else:
        batch = latency_metrics("batch", samples["sync_ms"])
        named = [batch[1], *latency_metrics("async_submit", samples["async_submit_ms"]),
                 *latency_metrics("async_done", samples["async_done_ms"])]
    line = [
        Metric("setup_s", median(run.setup_seconds), "s", len(run.setup_seconds)),
        Metric("batch_p50_ms", batch[0].value, "ms", batch[0].samples),
        Metric("requests_per_s", rate, "1/s", ops),
        Metric("peak_rss_mb", run.peak_rss_mb, "MB", 1),
    ]
    return line, named


def per_layer(name: str, run, import_seconds: float) -> tuple[list[Metric], list[Metric]]:
    """(metrics of the result line, workload-specific layer metrics)."""
    values = run.tracer.values

    def layer(metric: str, unit: str) -> Metric:
        return Metric(metric, median(values[metric]), unit, len(values[metric]))

    samples = run.ops.samples
    batch_kind = "batch" if name == "cold-mix" else "sync"
    untraced = median(samples[f"{batch_kind}_ms"])
    traced = median(samples[f"{batch_kind}_traced_ms"])
    values["process.import_s"] = [import_seconds]
    values["process.ready_s"] = list(run.ready_seconds)
    values["process.cache_fill_s"] = [seconds for seconds in run.fill_seconds if seconds]
    values["trace.overhead_ms"] = [traced - untraced] if traced and untraced else []
    line = []
    for metric, unit in LAYER_UNITS.items():
        if not values[metric] and unit in ("count", "ratio"):
            values[metric] = [0]
        line.append(layer(metric, unit))
    extra = [layer(metric, unit) for metric, unit in WORKLOAD_LAYER_UNITS.items()]
    return line, extra


def run_workload(name: str, args, import_seconds: float) -> dict:
    import inputs
    import workloads

    size = inputs.TINY if args.size == "tiny" else inputs.FULL
    run = workloads.Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace), size=size)
    if name == "cold-mix":
        workloads.Cold(run).execute()
    else:
        workloads.Warm(run, workloads.ROUTER_WORKERS if name == "warm-router" else 1).execute()
    e2e_line, e2e_named = end_to_end(name, run)
    if run.tracer is not None:
        line, printed = per_layer(name, run, import_seconds)
        printed = e2e_line + e2e_named + line + printed
    else:
        line, printed = e2e_line, e2e_line + e2e_named
    ops = run.ops
    attempted, failed = sum(ops.attempted.values()), sum(ops.failed.values())
    for metric in printed:
        print(metric.line(name))
    for kind in sorted(ops.attempted):
        print(f"[{name}] ops {kind:<14} attempted {ops.attempted[kind]:>4} "
              f"failed {ops.failed[kind]:>3}")
    print(f"[{name}] failure share {failed / max(1, attempted):.3f} "
          f"({failed} of {attempted} ops)")
    for note in run.notes:
        print(f"[{name}] {note}")
    if run.outcome_digest:
        print(f"[{name}] outcome digest {run.outcome_digest}")
    for problem in ops.mismatches + ops.errors:
        print(f"[{name}] FAILED {problem}", file=sys.stderr)
    missing = [metric.name for metric in line if metric.value is None]
    for metric in missing:
        print(f"[{name}] no value for {metric}", file=sys.stderr)
    return {
        "correct": not ops.mismatches and not missing,
        "attempted": attempted,
        "failed": failed,
        "line": line,
        "digest": run.outcome_digest,
        "spans": run.tracer.spans if run.tracer is not None else [],
    }


def compare_saved(paths) -> int:
    import harness
    from report import compare

    first, second = (json.loads(open(path).read()) for path in paths)
    differences = harness.environment_differences(first["environment"], second["environment"])
    if differences:
        print(f"refusing to compare: environments differ in {', '.join(differences)}",
              file=sys.stderr)
        return 2
    for row in compare(first, second):
        print(row)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare:
        return compare_saved(args.compare)
    if not (SOURCE / "repro").is_dir():
        print(f"nothing to measure: {SOURCE / 'repro'} is missing", file=sys.stderr)
        return 2
    start = time.perf_counter()
    import harness
    import workloads  # noqa: F401 - imports the program under test
    import_seconds = time.perf_counter() - start

    # SIGTERM unwinds like an error, so every server is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    environment = harness.environment_stamp()
    print("environment " + json.dumps(environment, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args, import_seconds) for name in names}
    finally:
        with contextlib.suppress(OSError):  # left in place if another run uses it
            harness.WORK.rmdir()
    correct = all(result["correct"] for result in results.values())
    digests = {results[name]["digest"] for name in ("warm-http", "warm-router") if name in results}
    if len(digests) > 1:
        print("FAILED warm-router outcomes differ from warm-http's", file=sys.stderr)
        correct = False
    if len(names) == 1:
        line = results[names[0]]["line"]
    else:
        line = [Metric(f"{name}.{metric.name}", metric.value, metric.unit, metric.samples)
                for name in names for metric in results[name]["line"]]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({
                "seed": args.seed,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": environment,
                "metrics": {
                    name: {metric.name: {"value": metric.value, "unit": metric.unit,
                                         "samples": metric.samples}
                           for metric in results[name]["line"]}
                    for name in names
                },
                "spans": {name: results[name]["spans"] for name in names},
            }, handle)
    print(result_line(
        correct,
        sum(result["attempted"] for result in results.values()),
        sum(result["failed"] for result in results.values()),
        line,
    ))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
