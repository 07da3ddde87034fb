"""Write this directory's ``outcomes.json``: recorded ``minlp`` outcomes.

Each problem of :func:`problems` is solved with ``method="minlp"`` after
every cross-call memo is dropped, so the document (work counters included)
is a function of the problem alone.  The wall clock ``runtime_seconds`` is
left out.  The documents were written by the revision whose bin packer ran
the explicit-stack completion engine (commit 789d891).  To rewrite them,
run this script with that revision's ``src`` first on ``PYTHONPATH``::

    PYTHONPATH=<old checkout>/src python tests/fixtures/minlp_outcomes/make_minlp_outcomes.py

``tests/test_minlp_recorded_outcomes.py`` imports :func:`problems` and
:func:`outcome_document` from here, so both sides solve the same problems
in the same way.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.core.objective import default_weights
from repro.core.problem import AllocationProblem
from repro.core.solvers import solve
from repro.platform.presets import derated_die_platform, mixed_fleet
from repro.reporting.experiments import case_study, skew_platform
from repro.reporting.trace import cold_solver_caches
from repro.workloads.alexnet import alexnet_fp32, alexnet_fx16

HERE = Path(__file__).resolve().parent
OUTCOMES = HERE / "outcomes.json"


def _fleets(pipeline, resources) -> list[tuple[str, AllocationProblem]]:
    return [
        (
            f"{pipeline.name}-{label}@{resource:g}",
            AllocationProblem(pipeline=pipeline, platform=build(2, 2, float(resource))),
        )
        for resource in resources
        for label, build in (("mixed", mixed_fleet), ("derated", derated_die_platform))
    ]


def problems() -> list[tuple[str, AllocationProblem]]:
    """The recorded problems, each with a unique name."""
    named = [
        (f"{case}@{resource:g}", case_study(case, resource))
        for case in ("alex-16", "alex-32")
        for resource in (50.0 + 2.5 * step for step in range(19))
    ]
    alex16 = alexnet_fx16()
    named += [
        (
            f"alex-16-skew{skew}",
            AllocationProblem(
                pipeline=alex16,
                platform=skew_platform(float(skew)),
                weights=default_weights(alex16.name, 2),
            ),
        )
        for skew in range(26)
    ]
    named += _fleets(alexnet_fp32(), range(50, 95, 5))
    named += _fleets(alex16, (55, 60, 65, 70))
    named += [(f"vgg-16@{resource}", case_study("vgg-16", float(resource))) for resource in (60, 70, 80)]
    return named


def outcome_document(problem: AllocationProblem) -> dict:
    """The cold ``minlp`` outcome document of ``problem``, minus its wall clock."""
    cold_solver_caches()
    document = solve(problem, method="minlp").to_dict()
    del document["runtime_seconds"]
    return document


def main() -> None:
    recorded = {}
    for name, problem in problems():
        started = time.perf_counter()
        recorded[name] = outcome_document(problem)
        print(f"{name}: {time.perf_counter() - started:.2f} s", file=sys.stderr)
    OUTCOMES.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
