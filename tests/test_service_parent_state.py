"""State written before the retired heuristic settings left still works.

``tests/fixtures/parent_state`` holds a result store, a write-ahead log of
two acknowledged but never-run jobs, and a manifest, all written by the
revision whose request documents spelled out ``gp_backend`` and
``use_bb_discretization`` (see ``make_parent_state.py`` there).  This
version must reproduce every fingerprint, serve the stored entries as
stored, and replay the journaled jobs to the same solutions; outcomes it
solves itself lack only the retired keys.  The one exception is the
journaled ``minlp+g`` request: the older revision stored a node-limited
answer, and this one certifies an optimum at least as good.
"""

from __future__ import annotations

import copy
import json
import shutil
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.core.solution import AllocationSolution, SolveOutcome
from repro.minlp.binpacking import shared_packing_memos_clear
from repro.service import AllocationService, ResultStore, request_from_dict, start_server
from repro.service.batch import solve_batch

FIXTURE = Path(__file__).parent / "fixtures" / "parent_state"
MANIFEST = json.loads((FIXTURE / "manifest.json").read_text())
#: Manifest index of the journaled ``minlp+g`` request.
WEIGHTED_REQUEST = 3
#: Outcome keys that only the older revision writes.
RETIRED_KEYS = {
    "details": (
        "gp_backend",
        "discretization_nodes",
        "relaxation_cache_hits",
        "relaxation_cache_misses",
    ),
    "counters": (
        "packing_memo_dominance_hits",
        "lp_batched_solves",
        "relaxation_cache_hits",
        "relaxation_cache_misses",
        "ii_cache_hits",
        "ii_cache_misses",
    ),
}


@pytest.fixture(scope="module", autouse=True)
def _cold_shared_caches():
    """Drop the packing memos warmed by earlier tests: a warm memo changes
    the replayed ``minlp`` outcomes' work counters."""
    shared_packing_memos_clear()


def without_retired_keys(document: dict) -> dict:
    """An outcome document minus its wall clock and the retired keys."""
    document = copy.deepcopy(document)
    del document["runtime_seconds"]
    for section, keys in RETIRED_KEYS.items():
        for key in keys:
            document.get(section, {}).pop(key, None)
    return document


def test_fixture_spells_out_the_retired_settings():
    documents = [entry["document"] for entry in MANIFEST["requests"]]
    spelled = [d["heuristic_settings"] for d in documents if d.get("heuristic_settings")]
    assert spelled
    for settings in spelled:
        assert settings["gp_backend"] == "bisection"
        assert settings["use_bb_discretization"] is True


def test_every_parent_fingerprint_is_reproduced():
    for entry in MANIFEST["requests"]:
        assert request_from_dict(entry["document"]).fingerprint() == entry["fingerprint"]


def test_parent_store_entries_are_served_as_stored(tmp_path):
    shutil.copytree(FIXTURE / "store", tmp_path / "store")
    store = ResultStore(cache_dir=tmp_path / "store")
    try:
        requests = [request_from_dict(entry["document"]) for entry in MANIFEST["requests"]]
        outcomes, report = solve_batch(requests, store=store)
    finally:
        store.close()
    assert report.disk_hits == len(requests)
    assert report.solves == 0
    # Served as stored: the retired keys are still in these documents.
    assert [outcome.to_dict() for outcome in outcomes] == [
        entry["outcome"] for entry in MANIFEST["requests"]
    ]


def test_parent_wal_jobs_replay_to_the_same_solutions(tmp_path):
    shutil.copytree(FIXTURE / "wal", tmp_path / "wal")
    service = AllocationService(store=ResultStore(), wal=tmp_path / "wal", job_workers=1)
    try:
        assert service.recovered_jobs == len(MANIFEST["jobs"])
        for job in MANIFEST["jobs"]:
            document = service.jobs.wait(job["job_id"], timeout_seconds=120.0)
            assert document["status"] == "done", document
            assert document["report"]["solves"] == len(job["requests"])
            for index, print_, outcome in zip(
                job["requests"], document["fingerprints"], document["outcomes"]
            ):
                entry = MANIFEST["requests"][index]
                assert print_ == entry["fingerprint"]
                if index == WEIGHTED_REQUEST:
                    assert_no_worse_than_stored(entry, outcome)
                    continue
                outcome = copy.deepcopy(outcome)
                del outcome["runtime_seconds"]
                assert outcome == without_retired_keys(entry["outcome"])
    finally:
        service.close()


def assert_no_worse_than_stored(entry: dict, document: dict) -> None:
    """A certified optimum whose objective is at most the stored counts'."""
    problem = request_from_dict(entry["document"]).problem
    replayed = SolveOutcome.from_dict(document, problem)
    stored = AllocationSolution(
        problem=problem,
        counts={name: tuple(row) for name, row in entry["outcome"]["solution"]["counts"].items()},
    )
    assert replayed.status.value == "optimal"
    assert replayed.solution.is_feasible()
    assert replayed.objective <= stored.objective


def test_use_bb_discretization_false_is_a_400_naming_the_field():
    document = copy.deepcopy(MANIFEST["requests"][1]["document"])
    document["heuristic_settings"]["use_bb_discretization"] = False
    service = AllocationService(job_workers=1)
    server, _ = start_server(service, port=0)
    try:
        request = urllib.request.Request(
            f"{server.url}/solve",
            data=json.dumps(document).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            urllib.request.urlopen(request, timeout=60)
        except urllib.error.HTTPError as error:
            status, body = error.code, json.loads(error.read())
        else:  # pragma: no cover - the assertion below reports it
            status, body = 200, {}
        assert status == 400
        assert "use_bb_discretization" in body["error"]
        assert service.stats()["service"]["solves"] == 0
    finally:
        server.shutdown()
        server.server_close()
        service.close()
