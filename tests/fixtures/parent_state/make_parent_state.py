"""Write this directory's store, write-ahead log and manifest.

The files were written by the revision before the retired heuristic
settings left the code (commit 274b6fe), whose request documents still
spell out ``gp_backend`` and ``use_bb_discretization`` and whose outcomes
still carry ``details.gp_backend``, ``details.discretization_nodes`` and
``counters.packing_memo_dominance_hits``.  To rewrite them, run this script
with that revision's ``src`` first on ``PYTHONPATH``::

    PYTHONPATH=<old checkout>/src python tests/fixtures/parent_state/make_parent_state.py

* ``store/`` -- a SQLite result store holding every request's outcome;
* ``wal/`` -- two acknowledged async jobs, journaled and never run (a crash);
* ``manifest.json`` -- each request's wire document, fingerprint and
  outcome document, and each job's request indices.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.core.exact import ExactSettings
from repro.core.heuristic import HeuristicSettings
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.platform.presets import mixed_fleet
from repro.reporting.experiments import case_study
from repro.service import AllocationService, ResultStore, SolveRequest, request_to_dict
from repro.service.batch import solve_batch
from repro.workloads.alexnet import alexnet_fx16

HERE = Path(__file__).resolve().parent
EXACT = ExactSettings(max_nodes=3)
#: Request indices of the two journaled jobs.
JOBS = ([1, 4], [0, 2, 3, 5])


def requests() -> list[SolveRequest]:
    hetero = AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=mixed_fleet(2, 1, 70.0),
        weights=ObjectiveWeights(alpha=1.0, beta=0.5),
    )
    return [
        SolveRequest(problem=case_study("alex-16", 70.0)),
        SolveRequest(
            problem=case_study("alex-16", 70.0), heuristic_settings=HeuristicSettings(t_percent=5.0)
        ),
        SolveRequest(problem=case_study("alex-32", 65.0), method="minlp", exact_settings=EXACT),
        SolveRequest(problem=case_study("alex-16", 75.0), method="minlp+g", exact_settings=EXACT),
        SolveRequest(problem=hetero, heuristic_settings=HeuristicSettings(criticality="resource")),
        SolveRequest(problem=hetero, method="minlp", exact_settings=EXACT),
    ]


def main() -> None:
    for name in ("store", "wal"):
        shutil.rmtree(HERE / name, ignore_errors=True)
    batch = requests()
    store = ResultStore(cache_dir=HERE / "store")
    outcomes, report = solve_batch(batch, store=store)
    assert report.solves == len(batch)
    store.close()

    crashed = AllocationService(store=ResultStore(), wal=HERE / "wal", start_job_workers=False)
    job_ids = [crashed.submit_batch([batch[index] for index in job])["job_id"] for job in JOBS]
    crashed.wal.close()

    manifest = {
        "requests": [
            {
                "document": request_to_dict(request),
                "fingerprint": request.fingerprint(),
                "outcome": outcome.to_dict(),
            }
            for request, outcome in zip(batch, outcomes)
        ],
        "jobs": [{"job_id": job_id, "requests": job} for job_id, job in zip(job_ids, JOBS)],
    }
    (HERE / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
