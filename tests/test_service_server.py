"""End-to-end tests: HTTP server round trips on an ephemeral port."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.problem import AllocationProblem
from repro.core.solution import SolveOutcome
from repro.platform.presets import aws_f1
from repro.reporting.experiments import case_study
from repro.service import (
    AllocationService,
    ResultStore,
    ServiceClient,
    ServiceError,
    SolveRequest,
    request_to_dict,
    start_server,
)


@pytest.fixture
def tiny_problem_at(tiny_pipeline):
    def build(resource: float) -> AllocationProblem:
        return AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=resource),
        )

    return build


@pytest.fixture
def running_service(tmp_path):
    """A server on an ephemeral port with a disk-backed store; yields a client."""
    service = AllocationService(store=ResultStore(cache_dir=tmp_path))
    server, _ = start_server(service, port=0)
    try:
        yield ServiceClient(server.url), service, server
    finally:
        server.shutdown()
        server.server_close()
        service.close()


class TestEndpoints:
    def test_health(self, running_service):
        client, _, _ = running_service
        health = client.health()
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0

    def test_solve_round_trip_and_cache_tiers(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        problem = tiny_problem_at(75.0)

        cold = client.solve(problem)
        assert cold["cache"] == "solver"
        warm = client.solve(problem)
        assert warm["cache"] == "memory"
        assert warm["fingerprint"] == cold["fingerprint"]
        assert warm["outcome"] == cold["outcome"]
        # The service-side latency of a warm memory hit is a cache lookup
        # plus JSON decode; well under the 50 ms test bound even on slow CI
        # (measured ~0.4 ms on the reference container, see ROADMAP.md).
        assert warm["latency_ms"] < 50.0

        outcome = client.solve_outcome(problem)
        assert outcome.succeeded
        assert outcome.solution.is_feasible()

    def test_solve_batch_dedupes(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        problems = [tiny_problem_at(60.0 + (index % 8)) for index in range(100)]
        requests = [SolveRequest(problem=problem) for problem in problems]
        outcomes, report = client.solve_batch_outcomes(requests)
        assert report["total"] == 100
        assert report["unique"] == 8
        assert report["duplicates"] == 92
        assert report["solves"] == 8
        assert len(outcomes) == 100
        assert all(outcome.succeeded for outcome in outcomes)

    def test_stats_reflects_traffic(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        client.solve(tiny_problem_at(70.0))
        client.solve(tiny_problem_at(70.0))
        stats = client.stats()
        assert stats["service"]["requests"] == 2
        assert stats["service"]["solves"] == 1
        assert stats["cache"]["memory_hits"] == 1
        assert stats["cache"]["puts"] == 1
        assert stats["cache_sizes"]["memory"] == 1

    def test_stats_expose_solver_work_counters(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        outcome = client.solve_outcome(tiny_problem_at(70.0), method="minlp")
        assert outcome.counters["packs"] > 0  # counters survive the wire format
        stats = client.stats()
        # The exact solve's work counters are aggregated into /stats.
        assert stats["solver"]["packs"] >= 1
        assert "packer_search_nodes" in stats["solver"]
        assert "candidates_considered" in stats["solver"]
        # A warm replay is answered from cache and must add no solver work.
        before = dict(stats["solver"])
        client.solve(tiny_problem_at(70.0), method="minlp")
        assert client.stats()["solver"] == before

    def test_errors_return_json_400_and_404(self, running_service):
        client, _, server = running_service
        with pytest.raises(ServiceError, match="problem"):
            client._request("/solve", {"method": "gp+a"})
        with pytest.raises(ServiceError, match="unknown endpoint"):
            client._request("/nope", {})
        # Malformed JSON body -> 400 with an error document.
        request = urllib.request.Request(
            f"{server.url}/solve", data=b"{not json", headers={"Content-Type": "application/json"}
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read().decode("utf-8"))


#: One bad value per ``ExactSettings`` field, each of a kind that was
#: solved or answered with a 500 before the fields were checked.
BAD_EXACT_SETTINGS = [
    ("max_nodes", "abc"),
    ("max_nodes", -5),
    ("packer_max_nodes", 2.5),
    ("time_limit_seconds", "x"),
    ("gap_tolerance", -1.0),
    ("packing_placement", "spread"),
    ("symmetry_breaking", "no"),
    ("seed_with_heuristic", 1),
]


class TestExactSettingsValidation:
    @staticmethod
    def _document(exact_settings: dict) -> dict:
        problem = case_study("alex-16", resource_limit_percent=70.0)
        document = request_to_dict(SolveRequest(problem=problem, method="minlp+g"))
        document["exact_settings"] = exact_settings
        return document

    @pytest.mark.parametrize("route", ["/solve", "/solve_batch"])
    @pytest.mark.parametrize(("field", "value"), BAD_EXACT_SETTINGS)
    def test_bad_field_is_a_400_naming_it(self, running_service, route, field, value):
        client, service, _ = running_service
        document = self._document({field: value})
        payload = document if route == "/solve" else {"requests": [document]}
        with pytest.raises(ServiceError, match=field) as excinfo:
            client._request(route, payload)
        assert excinfo.value.status == 400
        assert service.stats()["service"]["solves"] == 0

    @pytest.mark.parametrize("route", ["/solve", "/solve_batch"])
    def test_integral_float_is_the_same_request(self, running_service, route):
        client, _, _ = running_service
        answers = []
        for max_nodes in (3, 3.0):
            document = self._document({"max_nodes": max_nodes})
            if route == "/solve":
                answers.append(client._request(route, document)["fingerprint"])
            else:
                batch = client._request(route, {"requests": [document]})
                answers.append(batch["fingerprints"][0])
        assert answers[0] == answers[1]


class TestWarmRestart:
    def test_restarted_server_answers_from_disk_without_resolving(
        self, tmp_path, tiny_problem_at
    ):
        problem = tiny_problem_at(70.0)

        first_service = AllocationService(store=ResultStore(cache_dir=tmp_path))
        server, _ = start_server(first_service, port=0)
        try:
            first = ServiceClient(server.url).solve(problem)
            assert first["cache"] == "solver"
        finally:
            server.shutdown()
            server.server_close()
            first_service.close()

        reborn_service = AllocationService(store=ResultStore(cache_dir=tmp_path))
        server, _ = start_server(reborn_service, port=0)
        try:
            again = ServiceClient(server.url).solve(problem)
            assert again["cache"] == "disk"
            assert again["fingerprint"] == first["fingerprint"]
            assert again["outcome"]["solution"] == first["outcome"]["solution"]
            assert reborn_service.stats()["service"]["solves"] == 0
        finally:
            server.shutdown()
            server.server_close()
            reborn_service.close()


class TestAsyncBatchEndpoints:
    def test_async_batch_over_http_round_trip(self, running_service, tiny_problem_at):
        """POST mode=async returns a queued job id immediately; polling
        /jobs/<id> eventually serves the full outcome set, identically
        deduped to the sync path."""
        client, _, _ = running_service
        problems = [tiny_problem_at(60.0 + (index % 4)) for index in range(20)]
        requests = [SolveRequest(problem=problem) for problem in problems]

        submitted = client.solve_batch_async(requests)
        assert submitted["status"] == "queued"
        assert submitted["total"] == 20
        finished = client.wait_for_job(submitted["job_id"])
        report = finished["report"]
        assert report["total"] == 20 and report["unique"] == 4
        assert report["solves"] == 4
        outcomes = [
            SolveOutcome.from_dict(document, problem=request.problem)
            for document, request in zip(finished["outcomes"], requests)
        ]
        assert len(outcomes) == 20
        assert all(outcome.succeeded for outcome in outcomes)
        # A warm re-submission through the convenience wrapper: zero solves.
        replay_outcomes, replay_report = client.solve_batch_async_outcomes(requests)
        assert replay_report["solves"] == 0
        assert [outcome.to_dict() for outcome in replay_outcomes] == [
            outcome.to_dict() for outcome in outcomes
        ]

    def test_jobs_listing_and_unknown_job_404(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        submitted = client.solve_batch_async(
            [SolveRequest(problem=tiny_problem_at(70.0))]
        )
        client.wait_for_job(submitted["job_id"])
        listed = client.jobs()
        assert any(job["job_id"] == submitted["job_id"] for job in listed)
        assert all("outcomes" not in job for job in listed)  # summaries only
        with pytest.raises(ServiceError, match="unknown job"):
            client.job("job-99999999")

    def test_bad_batch_mode_is_rejected(self, running_service, tiny_problem_at):
        client, _, _ = running_service
        from repro.service.client import request_to_dict

        payload = {
            "mode": "later",
            "requests": [request_to_dict(SolveRequest(problem=tiny_problem_at(70.0)))],
        }
        with pytest.raises(ServiceError, match="unknown batch mode"):
            client._request("/solve_batch", payload)

    def test_async_stats_and_sync_equivalence(self, running_service, tiny_problem_at):
        """An async batch updates the same service counters as its sync twin
        and the outcomes agree document-for-document."""
        client, service, _ = running_service
        requests = [SolveRequest(problem=tiny_problem_at(62.0)) for _ in range(3)]
        async_outcomes, async_report = client.solve_batch_async_outcomes(requests)
        sync_outcomes, sync_report = client.solve_batch_outcomes(requests)
        assert async_report["solves"] == 1 and sync_report["solves"] == 0
        for async_outcome, sync_outcome in zip(async_outcomes, sync_outcomes):
            assert async_outcome.to_dict() == sync_outcome.to_dict()
        stats = client.stats()
        assert stats["jobs"]["submitted"] == 1
        assert stats["jobs"]["completed"] == 1
        assert stats["service"]["requests"] == 6
