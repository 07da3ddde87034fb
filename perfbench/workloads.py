"""The three workloads and the output checks that run alongside them.

Each run starts fresh servers, so every run begins with empty caches and
memos.  One closed-loop client alternates the workload's two ops inside the
timed window; a failed op (HTTP error, failed job or output mismatch) is
counted and adds no latency sample.  With tracing on, every other pair of
ops is traced (see :mod:`layers`), so the same run also yields the untraced
medians the tracing overhead is measured against.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from dataclasses import dataclass, field

import harness
import layers
from inputs import ColdTraffic, Size, WarmTraffic
from report import Ops
from repro import solve
from repro.fleet.allocator import FleetSolveMemo, allocate_fleet
from repro.fleet.state import fleet_to_dict, tenant_to_dict
from repro.service import ResultStore, ServiceError
from repro.service.hashing import ring

#: Async job poll interval: 2% of the router's ~1 s drain, so the drain is
#: not rounded up to a coarse grid.  Shorter is not better: every poll of a
#: router job re-fetches the outcomes of parts that have finished, which
#: slows the parts still running (10 ms polls measured ~15% slower).
POLL_SECONDS = 0.02
SUCCEEDED = ("optimal", "feasible")
#: Worker processes of the router topology (``nproc`` on the 2-CPU host the
#: benchmark was tuned on).
ROUTER_WORKERS = 2


@dataclass
class Run:
    """Settings of one benchmark run and everything it measured."""

    seed: int
    seconds: float
    trace: bool
    size: Size
    ops: Ops = field(default_factory=Ops)
    tracer: "layers.Tracer | None" = None
    ready_seconds: list = field(default_factory=list)
    fill_seconds: list = field(default_factory=list)
    setup_seconds: list = field(default_factory=list)
    answered: int = 0
    window_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    notes: list = field(default_factory=list)
    outcome_digest: str = ""

    def __post_init__(self) -> None:
        if self.trace:
            self.tracer = layers.Tracer()

    def traced(self, index: int) -> bool:
        """Ops go in pairs (one of each kind); every other pair is traced."""
        return self.tracer is not None and (index // 2) % 2 == 1

    def start_servers(self, start) -> harness.Server:
        """Start ``size.setups`` servers in turn, keep the last, time each."""
        server = None
        for _ in range(self.size.setups):
            if server is not None:
                server.stop()
            server = start()
            self.ready_seconds.append(server.ready_seconds)
            self.fill_seconds.append(server.fill_seconds)
            self.setup_seconds.append(server.setup_seconds)
        return server

    def window(self, step) -> None:
        """Call ``step(index, traced)`` until the window has elapsed.

        One untimed pair of ops first lets lazy set-up in the server finish.
        Before each op the client's garbage is collected and what survives is
        frozen, so collections during the op do not walk the benchmark's own
        long-lived state (stored documents, spans).
        """
        for index in range(2):
            self._step(step, index, False)
        self.ops.samples.clear()
        self.answered = 0
        start = time.perf_counter()
        index = 0
        # A traced run always gets one untraced and one traced pair.
        while time.perf_counter() - start < self.seconds or (self.tracer and index < 4):
            self._step(step, index, self.traced(index))
            index += 1
        self.window_seconds = time.perf_counter() - start

    @staticmethod
    def _step(step, index: int, traced: bool) -> None:
        gc.collect()
        gc.freeze()
        step(index, traced)


def _projection(document: dict) -> str:
    """An outcome document without its wall-clock field, as canonical JSON."""
    return json.dumps(
        {key: value for key, value in document.items() if key != "runtime_seconds"},
        sort_keys=True,
    )


def _cache_hit_ratio(before: dict, after: dict) -> float:
    delta = {
        key: after["cache"][key] - before["cache"][key]
        for key in ("memory_hits", "disk_hits", "misses")
    }
    lookups = sum(delta.values())
    return (delta["memory_hits"] + delta["disk_hits"]) / lookups if lookups else 0.0


# --------------------------------------------------------------------------- #
# warm-http / warm-router
# --------------------------------------------------------------------------- #
class Warm:
    """Alternating sync and async batches of fresh requests drawn from a set
    of unique problems that setup has already solved."""

    def __init__(self, run: Run, worker_processes: int):
        self.run = run
        self.worker_processes = worker_processes
        self.traffic = WarmTraffic(run.seed, run.size)
        self.uniques = self.traffic.unique_requests()
        self.prints = [request.fingerprint() for request in self.uniques]
        self.stored: list[str] = []

    def fill(self, server: harness.Server) -> list[str]:
        """Solve every unique problem once; returns the outcome documents.

        The single-process server takes them as one batch.  Through the
        router they go one ``POST /solve`` at a time: a cold batch through
        the worker pool fails on hosts with more than one CPU.
        """
        client = harness.client(server.url)
        start = time.perf_counter()
        if server.worker_processes == 1:
            response = client.solve_batch(self.uniques)
            documents, prints = response["outcomes"], response["fingerprints"]
            solves = response["report"]["solves"]
        else:
            answers = [client.solve(r.problem, method=r.method) for r in self.uniques]
            documents = [answer["outcome"] for answer in answers]
            prints = [answer["fingerprint"] for answer in answers]
            solves = sum(answer["cache"] == "solver" for answer in answers)
        server.fill_seconds = time.perf_counter() - start
        if prints != self.prints:
            raise RuntimeError("setup: server fingerprints differ from the client's")
        if solves != len(self.uniques):
            raise RuntimeError(f"setup: {solves} solves for {len(self.uniques)} new problems")
        statuses = {document["status"] for document in documents}
        if not statuses <= set(SUCCEEDED):
            raise RuntimeError(f"setup: outcome statuses {sorted(statuses)}")
        return [json.dumps(document) for document in documents]

    def start_server(self, worker_processes: int) -> tuple[harness.Server, list[str]]:
        """A server with every unique problem solved, and its documents."""
        server = harness.spawn_server(worker_processes)
        try:
            return server, self.fill(server)
        except BaseException:
            server.stop()
            raise

    def set_up(self) -> harness.Server:
        server, self.stored = self.start_server(self.worker_processes)
        return server

    @property
    def routed(self) -> bool:
        return self.worker_processes > 1

    def execute(self) -> None:
        run = self.run
        server = run.start_servers(self.set_up)
        side = None
        try:
            self.client = harness.client(server.url)
            self.replay_store = ResultStore()
            for print_, payload in zip(self.prints, self.stored):
                self.replay_store.put(print_, payload)
            self.ring = ring(ROUTER_WORKERS)
            if run.tracer is not None:
                # The router layers: traced batches also go through the other
                # topology, so both warm workloads measure router.hop_ms.
                side, _ = self.start_server(1 if self.routed else ROUTER_WORKERS)
                self.side_client = harness.client(side.url)
            stats_before = self.client.stats()
            run.window(self.step)
            stats_after = self.client.stats()
            run.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
            if side is not None:
                side.stop()
        if self.routed:
            self.note_worker_load(stats_before, stats_after)
        self.check_against_reference()

    def step(self, index: int, traced: bool) -> None:
        requests, picks = self.traffic.batch()
        if index % 2 == 0:
            self.sync(requests, picks, traced)
        else:
            self.asynchronous(requests, picks, traced)

    def mismatch(self, document: dict, picks: list[int]) -> str | None:
        """Why a warm answer is wrong, or ``None``: it must come from the
        cache and repeat the documents stored during setup byte for byte."""
        if document["report"]["solves"] != 0:
            return f"warm batch solved {document['report']['solves']} problems"
        outcomes, prints = document.get("outcomes") or [], document.get("fingerprints") or []
        if len(outcomes) != len(picks) or len(prints) != len(picks):
            return f"{len(outcomes)} outcomes for {len(picks)} requests"
        for print_, outcome, pick in zip(prints, outcomes, picks):
            if print_ != self.prints[pick]:
                return "fingerprint differs from the request's"
            if json.dumps(outcome) != self.stored[pick]:
                return "outcome document differs from the one stored in setup"
        return None

    def sync(self, requests, picks, traced: bool) -> None:
        run, tracer = self.run, self.run.tracer
        kind = "sync_traced" if traced else "sync"
        if traced:
            metrics_before, stats_before = self.client.metrics(), self.client.stats()
        start = time.perf_counter()
        try:
            document = self.client.solve_batch(requests)
        except ServiceError as error:
            run.ops.failure(kind, str(error))
            return
        latency_ms = (time.perf_counter() - start) * 1000.0
        problem = self.mismatch(document, picks)
        if problem is None and traced:
            with tracer.op("sync"):
                problem = self.trace_sync(requests, document, latency_ms,
                                          metrics_before, stats_before)
        if problem is not None:
            run.ops.failure(kind, problem, mismatch=True)
            return
        run.ops.success(kind, **{f"{kind}_ms": latency_ms})
        run.answered += len(requests)

    def trace_sync(self, requests, document, latency_ms, metrics_before, stats_before):
        tracer = self.run.tracer
        metrics_after, stats_after = self.client.metrics(), self.client.stats()
        _, batch_seconds = harness.histogram_delta(
            metrics_before, metrics_after, "repro_batch_latency_seconds"
        )
        tracer.count("server.batch_ms", batch_seconds * 1000.0)
        tracer.count("store.hit_ratio", _cache_hit_ratio(stats_before, stats_after))
        replayed = layers.replay_batch(tracer, requests, self.replay_store, document["report"])
        if [json.dumps(outcome) for outcome in replayed] != [
            json.dumps(outcome) for outcome in document["outcomes"]
        ]:
            return "in-process replay disagrees with the server's answer"
        start = time.perf_counter()
        try:
            side = self.side_client.solve_batch(requests)
        except ServiceError as error:
            return f"the other topology failed: {error}"
        side_ms = (time.perf_counter() - start) * 1000.0
        if [_projection(outcome) for outcome in side["outcomes"]] != [
            _projection(outcome) for outcome in document["outcomes"]
        ]:
            return "router and single-process outcomes differ"
        routed_ms, single_ms = (latency_ms, side_ms) if self.routed else (side_ms, latency_ms)
        tracer.count("router.hop_ms", routed_ms - single_ms)
        layers.split_batch(tracer, self.ring, document["fingerprints"])
        layers.count_coverage(tracer, latency_ms, routed=self.routed)
        return None

    def asynchronous(self, requests, picks, traced: bool) -> None:
        run, tracer, client = self.run, self.run.tracer, self.client
        kind = "async_traced" if traced else "async"
        polls: list[tuple[float, float]] = []
        if traced:
            metrics_before = client.metrics()
            job = client.job

            def timed_job(job_id):
                begin = time.perf_counter()
                try:
                    return job(job_id)
                finally:
                    polls.append((begin, time.perf_counter()))

            client.job = timed_job
        start = time.perf_counter()
        try:
            acknowledged = client.solve_batch_async(requests)
            acked = time.perf_counter()
            document = client.wait_for_job(
                acknowledged["job_id"], timeout_seconds=60.0, poll_seconds=POLL_SECONDS
            )
        except ServiceError as error:
            run.ops.failure(kind, str(error))
            return
        finally:
            if traced:
                del client.job
        done = time.perf_counter()
        if document["status"] != "done":
            run.ops.failure(kind, f"job {document['status']}: {document.get('error')}")
            return
        problem = self.mismatch(document, picks)
        if problem is not None:
            run.ops.failure(kind, problem, mismatch=True)
            return
        run.ops.success(kind, **{
            f"{kind}_submit_ms": (acked - start) * 1000.0,
            f"{kind}_done_ms": (done - start) * 1000.0,
        })
        run.answered += len(requests)
        if traced:
            metrics_after = client.metrics()
            with tracer.op("async"):
                for family, name in (("repro_job_wait_seconds", "jobs.queue_wait_ms"),
                                     ("repro_job_run_seconds", "jobs.run_ms")):
                    count, seconds = harness.histogram_delta(metrics_before, metrics_after, family)
                    tracer.count(name, 1000.0 * seconds / count if count else 0.0)
                tracer.count("jobs.polls", len(polls))
                tracer.count("jobs.drain_ms", (polls[-1][0] - acked) * 1000.0)
                tracer.count("jobs.fetch_ms", (polls[-1][1] - polls[-1][0]) * 1000.0)

    def note_worker_load(self, before: dict, after: dict) -> None:
        """Observed per-worker request share next to the ring's arc share."""
        shares = self.ring.arc_shares()
        served = {
            group: after["workers"][group]["service"]["requests"]
            - before["workers"].get(group, {}).get("service", {}).get("requests", 0)
            for group in after["workers"]
        }
        total = sum(served.values()) or 1
        for group in sorted(served):
            self.run.notes.append(
                f"worker g{group}: {served[group] / total:.3f} of requests "
                f"(ring arc share {shares[int(group)]:.3f})"
            )

    def check_against_reference(self) -> None:
        """The stored outcomes must equal in-process solves of the same
        problems (wall-clock field aside); the digest makes topologies
        comparable for the same seed."""
        reference = [
            _projection(solve(request.problem, method=request.method).to_dict())
            for request in self.uniques
        ]
        served = [_projection(json.loads(document)) for document in self.stored]
        if served != reference:
            self.run.ops.mismatches.append("setup outcomes differ from in-process solves")
        self.run.outcome_digest = hashlib.sha256("\n".join(served).encode()).hexdigest()[:16]


# --------------------------------------------------------------------------- #
# cold-mix
# --------------------------------------------------------------------------- #
class Cold:
    """Alternating batches of never-seen problems and fleet events."""

    def __init__(self, run: Run):
        self.run = run
        self.traffic = ColdTraffic(run.seed, run.size)

    def execute(self) -> None:
        run = self.run
        server = run.start_servers(lambda: harness.spawn_server(1))
        self.executor = layers.server_executor()
        try:
            self.client = harness.client(server.url)
            self.fleet = self.traffic.initial_fleet()
            self.client.fleet_allocate(fleet_to_dict(self.fleet))
            self.memo = FleetSolveMemo()
            if run.tracer is not None:
                allocate_fleet(self.fleet, memo=self.memo)
                # The resident pool starts once, as the server's does on its
                # untimed first batch, so no traced map pays for it.
                self.executor.map(abs, range(4))
                run.tracer.values["executor.pool_started"] = [int(self.executor.persistent)]
            self.replay_store = ResultStore()
            run.window(self.step)
            run.peak_rss_mb = server.peak_rss_mb()
        finally:
            server.stop()
            self.executor.close()

    def step(self, index: int, traced: bool) -> None:
        if index % 2 == 0:
            self.batch(traced)
        else:
            self.fleet_event(traced)

    def batch(self, traced: bool) -> None:
        run, tracer = self.run, self.run.tracer
        kind = "batch_traced" if traced else "batch"
        requests = self.traffic.batch()
        if traced:
            metrics_before, stats_before = self.client.metrics(), self.client.stats()
        start = time.perf_counter()
        try:
            document = self.client.solve_batch(requests)
        except ServiceError as error:
            run.ops.failure(kind, str(error))
            return
        latency_ms = (time.perf_counter() - start) * 1000.0
        report = document["report"]
        statuses = {outcome["status"] for outcome in document["outcomes"]}
        if report["solves"] != len(requests) or report["unique"] != len(requests):
            run.ops.failure(kind, f"{report['solves']} solves for {len(requests)} new problems",
                            mismatch=True)
            return
        if not statuses <= set(SUCCEEDED):
            run.ops.failure(kind, f"outcome statuses {sorted(statuses)}", mismatch=True)
            return
        run.ops.success(kind, **{f"{kind}_ms": latency_ms})
        run.answered += len(requests)
        if traced:
            metrics_after, stats_after = self.client.metrics(), self.client.stats()
            with tracer.op("batch"):
                _, seconds = harness.histogram_delta(
                    metrics_before, metrics_after, "repro_batch_latency_seconds"
                )
                tracer.count("server.batch_ms", seconds * 1000.0)
                tracer.count("store.hit_ratio", _cache_hit_ratio(stats_before, stats_after))
                tracer.count("router.parts", 1)
                counters = report["solver_counters"]
                for name, counter in (("minlp.lp_solves", "lp_solves"),
                                      ("minlp.node_solves", "node_solves"),
                                      ("minlp.packer_search_nodes", "packer_search_nodes")):
                    tracer.count(name, counters.get(counter, 0))
                tracer.count("core.memo_hits", sum(
                    value for name, value in counters.items() if name.endswith("_hits")
                ))
                layers.replay_batch(tracer, requests, self.replay_store, report, self.executor)
                layers.count_coverage(tracer, latency_ms)

    def fleet_event(self, traced: bool) -> None:
        run, tracer, client = self.run, self.run.tracer, self.client
        kind = "fleet_traced" if traced else "fleet"
        (event, subject), expected = self.traffic.fleet_event()
        if event == "arrival":
            self.fleet = self.fleet.with_tenant(subject)
            self.memo.forget_tenant(subject.id)
        else:
            self.fleet = self.fleet.without_tenant(subject)
            self.memo.forget_tenant(subject)
        if traced:
            stats_before = client.stats()["fleet"]
        start = time.perf_counter()
        try:
            if event == "arrival":
                response = client.fleet_arrival(tenant_to_dict(subject))
            else:
                response = client.fleet_departure(subject)
        except ServiceError as error:
            run.ops.failure(kind, str(error))
            return
        latency_ms = (time.perf_counter() - start) * 1000.0
        if response.get("tenants") != expected or response.get("allocation") is None:
            run.ops.failure(kind, f"{event}: tenants {response.get('tenants')} != {expected}",
                            mismatch=True)
            return
        run.ops.success(kind, **{f"{kind}_ms": latency_ms})
        if tracer is None:
            return
        if not traced:
            allocate_fleet(self.fleet, memo=self.memo)  # keep the mirror's memo in step
            return
        stats_after = client.stats()["fleet"]
        with tracer.op("fleet"):
            solves = stats_after["tenant_solves"] - stats_before["tenant_solves"]
            hits = stats_after["memo_hits"] - stats_before["memo_hits"]
            tracer.count("fleet.tenant_solves", solves)
            tracer.count("fleet.memo_hit_ratio", hits / (hits + solves) if hits + solves else 0.0)
            layers.replay_fleet(tracer, self.fleet, self.memo)
