"""Differential tests: the bisection min-max solver against an LP oracle.

The bisection of :mod:`repro.gp.minmax` is the GP step's only solver.  The
oracle in ``tests/minmax_oracle.py`` solves the same program as a linear
program in ``(N, 1/II)`` with HiGHS -- an independent algorithm.  These
tests pin the two together on every case study, on random box bounds over
the case studies, and on Hypothesis-generated boxed instances, for both the
optimal II and infeasibility.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_oracle import lp_min_max_ii
from repro.core.discretize import discretize_counts
from repro.core.gp_step import build_vectorized_minmax, solve_gp_step
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.reporting.experiments import case_study

CASES = ("alex-16", "alex-32", "vgg-16")
CONSTRAINTS = (55.0, 65.0, 70.0, 80.0)

#: Relative II agreement demanded of bisection and the LP oracle.
ORACLE_RTOL = 1e-7


def oracle_ii(problem, lo=None, hi=None):
    arrays = problem.arrays()
    if hi is None and np.any(np.isfinite(arrays.explicit_max)):
        hi = arrays.explicit_max
    return lp_min_max_ii(arrays.wcet, arrays.weights, arrays.aggregate_capacity, lo, hi)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_gp_step_backends_agree(case, constraint):
    """The GP step's bisection matches the LP oracle, and its counts are a
    feasible point that achieves the II it reports."""
    problem = case_study(case, resource_limit_percent=constraint)
    result = solve_gp_step(problem)
    assert result.ii_hat == pytest.approx(oracle_ii(problem), rel=ORACLE_RTOL)
    arrays = problem.arrays()
    counts = arrays.vector(result.counts_hat)
    assert np.all(arrays.weights @ counts <= arrays.aggregate_capacity * (1 + 1e-9))
    assert np.max(arrays.wcet / counts) == pytest.approx(result.ii_hat, rel=1e-12)


@pytest.mark.parametrize("case", CASES)
def test_vectorized_bisection_matches_oracle_on_boxes(case):
    """Random box bounds over a case study: equal II, equal infeasibility."""
    problem = case_study(case, resource_limit_percent=70.0)
    vectorized = build_vectorized_minmax(problem)
    rng = random.Random(20260726)
    for _ in range(50):
        lower = np.asarray([float(rng.randint(1, 4)) for _ in vectorized.names])
        upper = lower + np.asarray([float(rng.randint(0, 6)) for _ in vectorized.names])
        expected = oracle_ii(problem, lower, upper)
        if expected is None:
            with pytest.raises(InfeasibleError):
                vectorized.solve(min_counts=lower, max_counts=upper)
            continue
        ii, counts = vectorized.solve(min_counts=lower, max_counts=upper)
        assert ii == pytest.approx(expected, rel=ORACLE_RTOL)
        assert np.all(counts >= lower) and np.all(counts <= upper)


@st.composite
def boxed_instances(draw):
    kernels = draw(st.integers(min_value=1, max_value=6))
    dimensions = draw(st.integers(min_value=1, max_value=3))
    positive = st.floats(min_value=0.1, max_value=50.0, allow_nan=False)
    wcet = np.asarray(draw(st.lists(positive, min_size=kernels, max_size=kernels)))
    weights = np.asarray(
        draw(st.lists(positive, min_size=kernels * dimensions, max_size=kernels * dimensions))
    ).reshape(dimensions, kernels)
    capacity = np.asarray(
        draw(st.lists(st.floats(1.0, 500.0), min_size=dimensions, max_size=dimensions))
    )
    lower = np.asarray(draw(st.lists(st.integers(1, 4), min_size=kernels, max_size=kernels)))
    upper = lower + np.asarray(
        draw(st.lists(st.integers(0, 8), min_size=kernels, max_size=kernels))
    )
    return wcet, weights, capacity, lower.astype(float), upper.astype(float)


@given(boxed_instances())
@settings(max_examples=150, deadline=None)
def test_bisection_matches_oracle_on_random_boxed_instances(instance):
    wcet, weights, capacity, lower, upper = instance
    problem = VectorizedMinMaxProblem(
        names=[f"k{index}" for index in range(wcet.size)],
        wcet=wcet,
        weights=weights,
        capacity=capacity,
    )
    expected = lp_min_max_ii(wcet, weights, capacity, lower, upper)
    if expected is None:
        with pytest.raises(InfeasibleError):
            problem.solve(min_counts=lower, max_counts=upper)
        return
    ii, _ = problem.solve(min_counts=lower, max_counts=upper)
    assert ii == pytest.approx(expected, rel=ORACLE_RTOL)


def test_infeasible_minimum_counts_raise():
    # At 8 % even one CU per kernel exceeds the aggregated platform capacity.
    problem = case_study("alex-16", resource_limit_percent=8.0)
    assert oracle_ii(problem) is None
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
