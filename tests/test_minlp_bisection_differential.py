"""``minlp`` against the bisection solver it replaced (``bisection_min_ii``).

Both pack the same least CU totals with the same bin packer; the walk down
the candidate list from the GP+A incumbent must land on the same
allocation.  Statuses may differ only where the bisection called an answer
``optimal`` after a probe whose packer budget ran out.
"""

from __future__ import annotations

import pytest
from bisection_min_ii import solve_bisection_min_ii

from repro.core.exact import solve_exact_min_ii
from repro.core.objective import default_weights
from repro.core.problem import AllocationProblem
from repro.core.solution import SolveStatus
from repro.platform.presets import derated_die_platform, mixed_fleet
from repro.reporting.experiments import case_study, skew_platform
from repro.workloads.alexnet import alexnet_fp32, alexnet_fx16


def _problems() -> list[tuple[str, AllocationProblem]]:
    problems = [
        (f"{case}@{resource:g}", case_study(case, resource))
        for case in ("alex-16", "alex-32")
        for resource in (50.0 + 2.5 * step for step in range(19))
    ]
    alex16 = alexnet_fx16()
    problems += [
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
    alex32 = alexnet_fp32()
    for resource in range(50, 95, 5):
        for name, platform in (
            ("mixed", mixed_fleet(2, 2, float(resource))),
            ("derated", derated_die_platform(2, 2, float(resource))),
        ):
            problems.append(
                (f"alex-32-{name}@{resource}", AllocationProblem(pipeline=alex32, platform=platform))
            )
    return problems


PROBLEMS = _problems()


@pytest.mark.parametrize(("name", "problem"), PROBLEMS, ids=[name for name, _ in PROBLEMS])
def test_walk_down_matches_bisection(name, problem):
    walked = solve_exact_min_ii(problem)
    bisected = solve_bisection_min_ii(problem)
    if bisected.solution is None:
        assert walked.solution is None
    else:
        assert walked.solution is not None
        assert walked.solution.counts == bisected.solution.counts
        assert walked.objective == bisected.objective
    if bisected.counters["unproven_probes"] == 0:
        assert walked.status is bisected.status
    else:
        assert walked.status in (bisected.status, SolveStatus.FEASIBLE)


def test_the_inputs_include_proven_optima():
    """The set must hold answers the walk proves optimal; a run that proved
    nothing would make the status check vacuous."""
    statuses = {solve_exact_min_ii(problem).status for _, problem in PROBLEMS}
    assert SolveStatus.OPTIMAL in statuses
