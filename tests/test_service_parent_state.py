"""State written before the retired heuristic settings left still works.

``tests/fixtures/parent_state`` holds a result store, a write-ahead log of
two acknowledged but never-run jobs, and a manifest, all written by the
revision whose request documents spelled out ``gp_backend`` and
``use_bb_discretization`` (see ``make_parent_state.py`` there).  This
version must reproduce every fingerprint, serve the stored entries as
stored, and replay the journaled jobs to the same solutions; outcomes it
solves itself lack only the retired keys.
"""

from __future__ import annotations

import copy
import json
import shutil
import urllib.error
import urllib.request
from pathlib import Path

from repro.service import AllocationService, ResultStore, request_from_dict, start_server
from repro.service.batch import solve_batch

FIXTURE = Path(__file__).parent / "fixtures" / "parent_state"
MANIFEST = json.loads((FIXTURE / "manifest.json").read_text())
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
            expected = [
                without_retired_keys(MANIFEST["requests"][index]["outcome"])
                for index in job["requests"]
            ]
            replayed = [copy.deepcopy(outcome) for outcome in document["outcomes"]]
            for outcome in replayed:
                del outcome["runtime_seconds"]
            assert replayed == expected
    finally:
        service.close()


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
