"""Per-layer tracing: spans recorded in the benchmark's own files.

Nothing inside the program is instrumented.  A traced op first runs exactly
as an untraced one, then the benchmark replays the server's stages for the
same request documents in this process by calling the same public
functions the server calls (``request_from_dict``, ``SolveRequest.
fingerprint``, ``ResultStore.get``, ``decode_outcome``, ``solve``,
``SweepExecutor.map``, ``HashRing.partition``, ``carve_shares``,
``allocate_fleet``), each inside a span.  Server-side totals come from
``/metrics`` and ``/stats`` deltas around the op.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro import solve
from repro.core.discretize import discretization_cache_clear
from repro.explore.executor import (
    ExecutorSettings,
    SweepExecutor,
    available_workers,
    run_solve_task,
)
from repro.fleet.allocator import allocate_fleet, carve_shares
from repro.minlp.binpacking import shared_packing_memos_clear
from repro.minlp.branch_and_bound import shared_relaxation_caches_clear
from repro.service import request_from_dict, request_to_dict
from repro.service.batch import decode_outcome, encode_outcome


class Tracer:
    """Spans kept in memory; each traced op yields one value per stage.

    A stage's value is its self time: its span's duration minus the part
    covered by its child spans, summed over the stage's spans in the op.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        self._stack: list[dict] = []
        self._op: dict[str, float] | None = None

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None, "children": 0.0}
        parent = self._stack[-1] if self._stack else None
        record["parent"] = parent["name"] if parent else None
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            duration = record["end"] - record["start"]
            if parent is not None:
                parent["children"] += duration
            if self._op is not None:
                own_ms = (duration - record["children"]) * 1000.0
                self._op[f"{name}_ms"] = self._op.get(f"{name}_ms", 0.0) + own_ms

    @contextmanager
    def op(self, kind: str):
        """One traced op: stage self times and counts land in :attr:`values`."""
        self._op = {}
        try:
            with self.span(f"op.{kind}"):
                yield
            op_values, self._op = self._op, None
            op_values.pop(f"op.{kind}_ms", None)
            for name, value in op_values.items():
                self.values[name].append(value)
        finally:
            self._op = None

    def count(self, name: str, value: float) -> None:
        if self._op is not None:
            self._op[name] = value

    def last(self, name: str) -> float:
        return self._op.get(name, 0.0) if self._op is not None else 0.0


#: Stages on the blocking path of a sync batch.  ``server.batch_ms`` is the
#: server's own ``solve_batch`` time from ``/metrics`` (fingerprints, store
#: lookups, outcome decodes and solves); the rest are replayed.  A batch
#: through the router also pays ``router.hop_ms``.
PATH_STAGES = (
    "client.encode_ms", "server.body_parse_ms", "serialization.decode_ms",
    "server.batch_ms", "batch.outcome_encode_ms", "server.response_encode_ms",
    "client.decode_ms",
)


def count_coverage(tracer: Tracer, latency_ms: float, routed: bool = False) -> None:
    """Share of one traced batch's latency that its path stages add up to
    (above 1 when the replay runs slower than the server did)."""
    stages = PATH_STAGES + ("router.hop_ms",) if routed else PATH_STAGES
    tracer.count("trace.coverage", sum(tracer.last(stage) for stage in stages) / latency_ms)


def server_executor() -> SweepExecutor:
    """The executor a single-process ``repro serve`` solves batches on (see
    ``repro.cli``): one resident pool of ``available_workers()`` processes,
    or serial on one CPU.  The caller closes it."""
    workers = available_workers()
    if workers <= 1:
        return SweepExecutor(ExecutorSettings(parallel=False))
    return SweepExecutor(ExecutorSettings(parallel=True, max_workers=workers), persistent=True)


def clear_solver_memos() -> None:
    """Per-process solver memos, so each replayed solve starts cold."""
    discretization_cache_clear()
    shared_relaxation_caches_clear()
    shared_packing_memos_clear()


def replay_batch(tracer: Tracer, requests, store, report: dict, executor=None) -> list[dict]:
    """Replay one ``/solve_batch`` round trip stage by stage.

    Mirrors the client (encode, decode) and the server (parse, document
    decode, fingerprint, store lookup, outcome decode, solve of the misses
    on ``executor``, outcome encode, response encode).  Returns the outcome
    documents the server would have sent.
    """
    with tracer.span("client.encode"):
        body = json.dumps({"requests": [request_to_dict(r) for r in requests]}).encode("utf-8")
    with tracer.span("server.body_parse"):
        payload = json.loads(body.decode("utf-8"))
    with tracer.span("serialization.decode"):
        decoded = [request_from_dict(document) for document in payload["requests"]]
    tracer.count("serialization.docs_decoded", len(decoded))
    with tracer.span("canonical.fingerprint"):
        prints = [request.fingerprint() for request in decoded]
    tracer.count("canonical.fingerprints", len(prints))
    first_of: dict = {}
    for request, print_ in zip(decoded, prints):
        first_of.setdefault(print_, request)
    tracer.count("batch.unique_ratio", len(first_of) / len(decoded))
    with tracer.span("store.lookup"):
        lookups = {print_: store.get(print_) for print_ in first_of}
    with tracer.span("batch.outcome_decode"):
        outcomes = {
            print_: decode_outcome(lookup.payload, first_of[print_].problem, fingerprint=print_)
            for print_, lookup in lookups.items()
            if lookup.hit
        }
    missing = [(print_, first_of[print_]) for print_, lookup in lookups.items() if not lookup.hit]
    if missing:
        solved = replay_solves(tracer, executor, [request.task() for _, request in missing])
        with tracer.span("batch.outcome_encode"):
            for (print_, request), outcome in zip(missing, solved):
                outcomes[print_] = outcome
                store.put(print_, encode_outcome(outcome, request.problem))
    with tracer.span("batch.outcome_encode"):
        documents = [outcomes[print_].to_dict() for print_ in prints]
    with tracer.span("server.response_encode"):
        response = json.dumps(
            {"report": report, "fingerprints": prints, "outcomes": documents}, allow_nan=False
        ).encode("utf-8")
    with tracer.span("client.decode"):
        json.loads(response.decode("utf-8"))
    return documents


def replay_solves(tracer: Tracer, executor: SweepExecutor, tasks) -> list:
    """The executor's map and the same solves run serially in process.

    ``executor.overhead_ms`` is the map's time minus the serial sum: the
    cost (or, with a pool on several CPUs, the gain) of the executor.
    """
    clear_solver_memos()
    with tracer.span("executor.map"):
        executor.map(run_solve_task, tasks)
    clear_solver_memos()
    outcomes = []
    serial_ms = 0.0
    for task in tasks:
        stage = "core.gp_a_solve" if task.method == "gp+a" else "minlp.exact_solve"
        with tracer.span(stage) as record:
            outcomes.append(solve(
                task.problem,
                method=task.method,
                heuristic_settings=task.heuristic_settings,
                exact_settings=task.exact_settings,
            ))
        serial_ms += (record["end"] - record["start"]) * 1000.0
    tracer.count("executor.overhead_ms", tracer.last("executor.map_ms") - serial_ms)
    return outcomes


def replay_fleet(tracer: Tracer, fleet, memo) -> None:
    """The carve alone, then the whole allocation (which carves again)."""
    with tracer.span("fleet.carve"):
        carve_shares(fleet)
    with tracer.span("fleet.allocate"):
        allocate_fleet(fleet, memo=memo)


def split_batch(tracer: Tracer, ring, prints: list[str]) -> None:
    """The router's ring split of one batch's fingerprints."""
    with tracer.span("hashing.split"):
        parts = ring.partition(prints)
    tracer.count("router.parts", len(parts))
