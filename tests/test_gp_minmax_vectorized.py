"""Parity tests: the vectorized min-max kernel against the scalar reference.

The vectorized NumPy bisection is the production hot path; the scalar
:class:`MinMaxLatencyProblem` stays as the cross-check backend.  These tests
pin the two together to 1e-9 on every case study and on randomized
branch-and-bound style box bounds.
"""

import random

import numpy as np
import pytest

from repro.core.discretize import discretize_counts
from repro.core.gp_step import (
    build_minmax_problem,
    build_vectorized_minmax,
    solve_gp_step,
)
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.reporting.experiments import case_study

CASES = ("alex-16", "alex-32", "vgg-16")
CONSTRAINTS = (55.0, 65.0, 70.0, 80.0)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_gp_step_backends_agree(case, constraint):
    """The default (vectorized) backend matches the scalar bisection solver."""
    problem = case_study(case, resource_limit_percent=constraint)
    vectorized = solve_gp_step(problem, backend="bisection")
    scalar = solve_gp_step(problem, backend="bisection-scalar")
    assert vectorized.ii_hat == pytest.approx(scalar.ii_hat, abs=1e-9)
    assert set(vectorized.counts_hat) == set(scalar.counts_hat)
    for name, value in scalar.counts_hat.items():
        assert vectorized.counts_hat[name] == pytest.approx(value, abs=1e-9)


@pytest.mark.parametrize("case", CASES)
def test_vectorized_bisection_matches_scalar_on_boxes(case):
    """Same bisection, same bracket: parity holds under box bounds too."""
    problem = case_study(case, resource_limit_percent=70.0)
    scalar_base = build_minmax_problem(problem)
    vectorized = VectorizedMinMaxProblem.from_scalar(scalar_base)
    names = vectorized.names
    rng = random.Random(20260726)
    for _ in range(50):
        lower = {name: float(rng.randint(1, 4)) for name in names}
        upper = {name: lower[name] + float(rng.randint(0, 6)) for name in names}
        scalar = build_minmax_problem(problem, min_counts=lower, max_counts=upper)
        try:
            scalar_ii, scalar_counts = scalar.solve()
        except InfeasibleError:
            with pytest.raises(InfeasibleError):
                vectorized.solve_dict(min_counts=lower, max_counts=upper)
            continue
        vector_ii, vector_counts = vectorized.solve_dict(min_counts=lower, max_counts=upper)
        assert vector_ii == pytest.approx(scalar_ii, abs=1e-9)
        for name in names:
            assert vector_counts[name] == pytest.approx(scalar_counts[name], abs=1e-9)


def test_lower_hint_does_not_change_the_optimum():
    problem = case_study("vgg-16", resource_limit_percent=70.0)
    vectorized = build_vectorized_minmax(problem)
    cold_ii, cold_counts = vectorized.solve()
    warm_ii, warm_counts = vectorized.solve(lower_hint=cold_ii)
    assert warm_ii == pytest.approx(cold_ii, rel=1e-9)
    np.testing.assert_allclose(warm_counts, cold_counts, rtol=1e-8)


def test_infeasible_minimum_counts_raise():
    # At 8 % even one CU per kernel exceeds the aggregated platform capacity.
    problem = case_study("alex-16", resource_limit_percent=8.0)
    vectorized = build_vectorized_minmax(problem)
    with pytest.raises(InfeasibleError):
        vectorized.solve()


@pytest.mark.parametrize("case", CASES)
def test_discretization_identical_under_both_relaxation_paths(case):
    """End to end: the discretised totals are feasible, achieve exactly their
    II, and that II is bounded below by the vectorized GP relaxation."""
    problem = case_study(case, resource_limit_percent=70.0)
    gp = solve_gp_step(problem)
    result = discretize_counts(problem, use_cache=False)
    # Integer counts must be aggregate-feasible and achieve exactly their II.
    arrays = problem.arrays()
    vector = arrays.vector(result.counts)
    assert arrays.aggregate_feasible(vector, problem.num_fpgas)
    assert result.ii == pytest.approx(arrays.achieved_ii(vector), abs=1e-12)
    # And the relaxed optimum is a valid lower bound within tolerance.
    assert result.ii >= gp.ii_hat - 1e-9
