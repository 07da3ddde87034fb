"""Ablation: exact weighted solver options (incumbent seeding, symmetry breaking).

MINLP+G is a candidate-II decomposition with a split search per candidate;
the ablation checks that seeding it with the GP+A incumbent never hurts the
certified objective, that the retired ``symmetry_breaking`` switch changes
no answer, and that the split search's work stays at its measured level.
"""

import pytest

from repro.core.exact import ExactSettings, solve_exact_weighted
from repro.reporting.experiments import case_study

NODE_BUDGET = 3
TIME_BUDGET = 60.0

#: Hard ceilings for the split search on alex-16 at 70 %, enforced by the
#: ``exact-smoke`` CI job.  Measured seeded: 29 split-search nodes over 4
#: visited candidates (of 20).  The node ceiling is 1.5x the measured value,
#: so a regression in the greedy incumbent, the candidate bound or the
#: search's pruning trips it.
MAX_SPLIT_SEARCH_NODES = 45
MAX_CANDIDATES_VISITED = 6


def _settings(seed: bool, symmetry: bool) -> ExactSettings:
    return ExactSettings(
        max_nodes=NODE_BUDGET,
        time_limit_seconds=TIME_BUDGET,
        seed_with_heuristic=seed,
        symmetry_breaking=symmetry,
    )


@pytest.mark.parametrize("seed", [True, False])
def test_seeding_ablation_runtime(benchmark, seed):
    problem = case_study("alex-16", resource_limit_percent=70.0)
    outcome = benchmark.pedantic(
        solve_exact_weighted, args=(problem, _settings(seed, True)), rounds=1, iterations=1
    )
    if seed:
        assert outcome.succeeded


def test_seeding_never_hurts_objective():
    problem = case_study("alex-16", resource_limit_percent=70.0)
    seeded = solve_exact_weighted(problem, _settings(True, True))
    unseeded = solve_exact_weighted(problem, _settings(False, True))
    assert seeded.succeeded
    if unseeded.succeeded:
        assert seeded.objective <= unseeded.objective + 1e-6


def test_split_search_work_stays_bounded():
    """Search regressions fail loudly: split-search nodes and visited
    candidates are capped, and the answer is certified."""
    problem = case_study("alex-16", resource_limit_percent=70.0)
    outcome = solve_exact_weighted(problem, _settings(True, True))
    assert outcome.status.value == "optimal"
    counters = outcome.counters
    assert counters["candidates_considered"] > 0
    assert counters["candidates_visited"] <= MAX_CANDIDATES_VISITED
    assert counters["split_search_nodes"] <= MAX_SPLIT_SEARCH_NODES


def test_symmetry_breaking_keeps_validity():
    problem = case_study("alex-16", resource_limit_percent=75.0)
    with_symmetry = solve_exact_weighted(problem, _settings(True, True))
    without_symmetry = solve_exact_weighted(problem, _settings(True, False))
    assert with_symmetry.succeeded and without_symmetry.succeeded
    assert with_symmetry.solution.counts == without_symmetry.solution.counts
    # Both are valid feasible solutions of the same problem; their goal values
    # must respect their own lower bounds.
    for outcome in (with_symmetry, without_symmetry):
        assert outcome.objective >= outcome.lower_bound - 1e-6
