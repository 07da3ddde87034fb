"""Tests for the deduped batch solve API (repro.service.batch)."""

from __future__ import annotations

import json

import pytest

from repro.core.exact import ExactSettings
from repro.core.heuristic import HeuristicSettings
from repro.core.problem import AllocationProblem
from repro.core.solvers import solve
from repro.platform.presets import aws_f1
from repro.reporting.experiments import case_study
from repro.reporting.trace import cold_solver_caches
from repro.service.batch import SolveRequest, request_from_dict, solve_batch
from repro.service.client import request_to_dict
from repro.service.store import ResultStore
from repro.workloads.serialization import SerializationError


@pytest.fixture
def tiny_problem_at(tiny_pipeline):
    def build(resource: float) -> AllocationProblem:
        return AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )

    return build


class TestSolveBatchDedupe:
    def test_1000_requests_64_unique_solve_exactly_64_times(self, tiny_problem_at):
        # The acceptance scenario: a batch of 1000 requests containing 64
        # distinct problems must perform exactly 64 solves, proven by both
        # the batch report and the store counters.
        unique = [tiny_problem_at(30.0 + index) for index in range(64)]
        requests = [SolveRequest(problem=unique[index % 64]) for index in range(1000)]
        store = ResultStore()
        outcomes, report = solve_batch(requests, store=store)

        assert report.total == 1000
        assert report.unique == 64
        assert report.duplicates == 936
        assert report.solves == 64
        assert report.memory_hits == 0 and report.disk_hits == 0
        assert store.stats().puts == 64
        assert len(outcomes) == 1000

    def test_batch_report_aggregates_solver_counters(self, tiny_problem_at):
        requests = [
            SolveRequest(problem=tiny_problem_at(70.0), method="minlp"),
            SolveRequest(problem=tiny_problem_at(75.0), method="minlp"),
        ]
        store = ResultStore()
        _, report = solve_batch(requests, store=store)
        # Two exact solves happened; their work counters sum onto the report.
        assert report.solves == 2
        assert report.solver_counters["packs"] >= 2
        assert "candidates_considered" in report.solver_counters
        assert report.as_dict()["solver_counters"] == report.solver_counters

        # A fully cached replay performs no solver work.
        _, warm_report = solve_batch(requests, store=store)
        assert warm_report.solves == 0
        assert warm_report.solver_counters == {}

    def test_second_batch_is_answered_entirely_from_cache(self, tiny_problem_at):
        requests = [SolveRequest(problem=tiny_problem_at(60.0 + (index % 4))) for index in range(20)]
        store = ResultStore()
        solve_batch(requests, store=store)
        _, warm = solve_batch(requests, store=store)
        assert warm.solves == 0
        assert warm.memory_hits == 4 and warm.disk_hits == 0

    def test_duplicates_share_one_outcome_object(self, tiny_problem_at):
        request = SolveRequest(problem=tiny_problem_at(70.0))
        outcomes, _ = solve_batch([request, request, request])
        assert outcomes[0] is outcomes[1] is outcomes[2]

    def test_outcomes_in_request_order_match_direct_solves(self, tiny_problem_at):
        problems = [tiny_problem_at(resource) for resource in (80.0, 50.0, 80.0, 65.0)]
        outcomes, report = solve_batch([SolveRequest(problem=p) for p in problems])
        assert report.unique == 3
        for problem, outcome in zip(problems, outcomes):
            direct = solve(problem, method="gp+a")
            assert outcome.solution.counts == direct.solution.counts
            assert outcome.status == direct.status


class TestSolveOrder:
    def test_reversed_batch_gives_identical_outcome_documents(self):
        """Misses are solved in request order, with no grouping.  The solver
        memos are keyed by value, so the order cannot change an answer: a
        mixed batch and its reversal, each solved cold, give byte-identical
        outcome documents (minus the wall clock)."""

        def batch() -> list[SolveRequest]:
            return [
                SolveRequest(
                    problem=case_study(app, limit),
                    method=method,
                    exact_settings=None if method == "gp+a" else ExactSettings(max_nodes=3),
                )
                for app in ("alex-16", "alex-32")
                for limit in (60.0, 75.0)
                for method in ("gp+a", "minlp", "minlp+g")
            ]

        def documents(requests: list[SolveRequest]) -> dict[str, str]:
            cold_solver_caches()
            outcomes, report = solve_batch(requests, store=ResultStore())
            assert report.solves == len(requests)
            texts = {}
            for request, outcome in zip(requests, outcomes):
                document = outcome.to_dict()
                del document["runtime_seconds"]
                texts[request.fingerprint()] = json.dumps(document)
            return texts

        forward = documents(batch())
        assert len(forward) == 12
        assert documents(batch()[::-1]) == forward


class TestRequestWireFormat:
    def test_round_trip(self, tiny_problem_at):
        request = SolveRequest(
            problem=tiny_problem_at(70.0),
            method="gp+a",
            heuristic_settings=HeuristicSettings(t_percent=5.0),
        )
        clone = request_from_dict(request_to_dict(request))
        assert clone.fingerprint() == request.fingerprint()
        assert clone.method == "gp+a"
        assert clone.heuristic_settings.t_percent == 5.0

    def test_default_settings_stay_none_on_the_wire(self, tiny_problem_at):
        request = SolveRequest(problem=tiny_problem_at(70.0))
        payload = request_to_dict(request)
        assert "heuristic_settings" not in payload
        assert request_from_dict(payload).fingerprint() == request.fingerprint()

    def test_unknown_method_rejected(self, tiny_problem_at):
        payload = request_to_dict(SolveRequest(problem=tiny_problem_at(70.0)))
        payload["method"] = "magic"
        with pytest.raises(SerializationError, match="unknown method"):
            request_from_dict(payload)
        with pytest.raises(ValueError, match="unknown method"):
            SolveRequest(problem=None, method="magic")

    def test_unknown_settings_fields_rejected(self, tiny_problem_at):
        payload = request_to_dict(SolveRequest(problem=tiny_problem_at(70.0)))
        payload["heuristic_settings"] = {"t_percent": 5.0, "bogus": 1}
        with pytest.raises(SerializationError, match="bogus"):
            request_from_dict(payload)

    def test_retired_discretization_fields_are_dropped(self, tiny_problem_at):
        """Documents from before the threshold-search discretiser still
        decode, to the same request as without the two retired fields."""
        payload = request_to_dict(SolveRequest(problem=tiny_problem_at(70.0)))
        payload["heuristic_settings"] = {
            "t_percent": 5.0,
            "discretization_max_nodes": 20_000,
            "discretization_time_limit": 30.0,
        }
        request = request_from_dict(payload)
        assert request.heuristic_settings == HeuristicSettings(t_percent=5.0)
        # Only those two keys, and only for the heuristic settings.
        payload["heuristic_settings"]["bogus"] = 1
        with pytest.raises(SerializationError, match="bogus"):
            request_from_dict(payload)
        payload["heuristic_settings"] = None
        payload["exact_settings"] = {"discretization_max_nodes": 20_000}
        with pytest.raises(SerializationError, match="discretization_max_nodes"):
            request_from_dict(payload)

    def test_retired_constant_fields_accept_only_their_one_value(self, tiny_problem_at):
        """``gp_backend`` and ``use_bb_discretization`` left the settings but
        stay in every gp+a fingerprint: spelled out with their one legal
        value they decode to the default request, any other value fails."""
        payload = request_to_dict(SolveRequest(problem=tiny_problem_at(70.0)))
        default = request_from_dict(payload).fingerprint()
        payload["heuristic_settings"] = {"gp_backend": "bisection", "use_bb_discretization": True}
        request = request_from_dict(payload)
        assert request.heuristic_settings == HeuristicSettings()
        assert request.fingerprint() == default
        for name, value in (("gp_backend", "slsqp"), ("use_bb_discretization", False)):
            payload["heuristic_settings"] = {name: value}
            with pytest.raises(SerializationError, match=name):
                request_from_dict(payload)

    def test_missing_problem_rejected(self):
        with pytest.raises(SerializationError, match="problem"):
            request_from_dict({"method": "gp+a"})
