"""Ablation: exact weighted solver options (incumbent seeding, symmetry breaking).

The MINLP+G branch-and-bound is the expensive reference; the ablation checks
that seeding it with the GP+A incumbent and breaking the FPGA permutation
symmetry never hurts the objective reached within a fixed node budget.
"""

import pytest

from repro.core.exact import ExactSettings, solve_exact_weighted
from repro.reporting.experiments import case_study

NODE_BUDGET = 3
TIME_BUDGET = 60.0

#: Hard ceiling for LP solves per relaxation node solve, enforced by the
#: ``exact-smoke`` CI job: a node needs at most one feasibility LP (none
#: when its parent's feasibility point lies in its box) plus the probes of
#: the tangent-cut II search.  Measured cold on alex-16 at 70 %: 11 LPs over
#: 7 nodes (1.57/node; the derivative-sign bisection needed 2.0, the pre-PR 3
#: bisection + golden-section search ~62).  The ceiling is 1.5x the measured
#: value, so a regression in the relaxation assembly or the II search trips it.
MAX_LP_SOLVES_PER_NODE = 2.35


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


def test_lp_solves_per_node_stay_bounded():
    """Relaxation-assembly regressions fail loudly: LPs per node is capped."""
    problem = case_study("alex-16", resource_limit_percent=70.0)
    outcome = solve_exact_weighted(problem, _settings(True, True))
    assert outcome.succeeded
    counters = outcome.counters
    assert counters["node_solves"] > 0
    assert counters["lp_solves"] / counters["node_solves"] <= MAX_LP_SOLVES_PER_NODE
    # Every node pays exactly one feasibility LP (no bisection), never more.
    assert counters["feasibility_lps"] <= counters["node_solves"]


def test_symmetry_breaking_keeps_validity():
    problem = case_study("alex-16", resource_limit_percent=75.0)
    with_symmetry = solve_exact_weighted(problem, _settings(True, True))
    without_symmetry = solve_exact_weighted(problem, _settings(True, False))
    assert with_symmetry.succeeded and without_symmetry.succeeded
    # Both are valid feasible solutions of the same problem; their goal values
    # must respect their own lower bounds.
    for outcome in (with_symmetry, without_symmetry):
        assert outcome.objective >= outcome.lower_bound - 1e-6
