"""Differential tests: the closed-form min-max solver against two oracles.

The closed form of :mod:`repro.gp.minmax` is the GP step's only solver.
``tests/minmax_oracle.py`` holds two references: the same program as a
linear program in ``(N, 1/II)`` solved with HiGHS -- an independent
algorithm -- and the bisection the closed form replaced, which converges
on the solver's own optimum.  These tests pin them together on every case
study, on random box bounds over the case studies, and on
Hypothesis-generated instances (including breakpoint ties, zero weights,
zero-capacity rows, binding caps and infeasible boxes), for both the
optimal II and infeasibility.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minmax_oracle import bisection_min_max, lp_min_max_ii
from repro.core.discretize import discretize_counts
from repro.core.gp_step import build_vectorized_minmax, solve_gp_step
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.reporting.experiments import case_study

CASES = ("alex-16", "alex-32", "vgg-16")
CONSTRAINTS = (55.0, 65.0, 70.0, 80.0)

#: Relative II agreement demanded of the closed form and the LP oracle.
ORACLE_RTOL = 1e-7
#: Relative II agreement demanded of the closed form and the bisection.
BISECTION_RTOL = 1e-9


def oracle_ii(problem, lo=None, hi=None):
    arrays = problem.arrays()
    if hi is None and np.any(np.isfinite(arrays.explicit_max)):
        hi = arrays.explicit_max
    return lp_min_max_ii(arrays.wcet, arrays.weights, arrays.aggregate_capacity, lo, hi)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("constraint", CONSTRAINTS)
def test_gp_step_backends_agree(case, constraint):
    """The GP step matches the LP oracle, and its counts are a feasible
    point that achieves the II it reports."""
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
        reference_ii, _ = bisection_min_max(vectorized, lower, upper)
        assert ii == pytest.approx(reference_ii, rel=BISECTION_RTOL)
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
    assert ii == pytest.approx(bisection_min_max(problem, lower, upper)[0], rel=BISECTION_RTOL)


@st.composite
def edge_instances(draw):
    """Instances on the closed form's edges: breakpoint ties (few distinct
    WCETs and minimums), zero weights, zero-capacity rows, per-kernel caps
    that set the II, minimums above one and boxes that do not fit."""
    kernels = draw(st.integers(min_value=1, max_value=7))
    dimensions = draw(st.integers(min_value=1, max_value=3))
    few_values = st.sampled_from((0.5, 1.0, 2.0, 3.0, 8.0))
    wcet = np.asarray(draw(st.lists(few_values, min_size=kernels, max_size=kernels)))
    weight = st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=20.0))
    weights = np.asarray(
        draw(st.lists(weight, min_size=kernels * dimensions, max_size=kernels * dimensions))
    ).reshape(dimensions, kernels)
    capacity = np.asarray(
        draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=300.0)),
                min_size=dimensions,
                max_size=dimensions,
            )
        )
    )
    # A zero-capacity row usually carries no demand (else nothing fits).
    for row in np.nonzero(capacity == 0.0)[0]:
        if draw(st.booleans()):
            weights[row] = 0.0
    lower = np.asarray(
        draw(st.lists(st.integers(1, 3), min_size=kernels, max_size=kernels)), dtype=float
    )
    upper = None
    if draw(st.booleans()):
        span = st.one_of(st.integers(0, 3), st.just(None))  # None: no cap
        spans = draw(st.lists(span, min_size=kernels, max_size=kernels))
        upper = np.asarray(
            [np.inf if span is None else low + span for low, span in zip(lower, spans)]
        )
    return wcet, weights, capacity, lower, upper


@given(edge_instances())
@settings(max_examples=400, deadline=None)
def test_closed_form_matches_both_oracles_on_edge_instances(instance):
    wcet, weights, capacity, lower, upper = instance
    problem = VectorizedMinMaxProblem(
        names=[f"k{index}" for index in range(wcet.size)],
        wcet=wcet,
        weights=weights,
        capacity=capacity,
    )
    try:
        reference_ii, reference_counts = bisection_min_max(problem, lower, upper)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            problem.solve(min_counts=lower, max_counts=upper)
        assert lp_min_max_ii(wcet, weights, capacity, lower, upper) is None
        return
    ii, counts = problem.solve(min_counts=lower, max_counts=upper)
    assert ii == pytest.approx(reference_ii, rel=BISECTION_RTOL)
    # The cheapest counts at the optimum; the bisection's cap test admits
    # IIs up to 1e-9 below a binding cap floor, hence the looser bound.
    np.testing.assert_allclose(counts, reference_counts, rtol=1e-7)
    expected = lp_min_max_ii(wcet, weights, capacity, lower, upper)
    if expected == 0.0:  # no row or cap bounds the II: both report ~0
        assert ii <= 1e-9
    else:
        assert ii == pytest.approx(expected, rel=ORACLE_RTOL)
    assert np.all(counts >= lower)
    if upper is not None:
        assert np.all(counts <= upper)
    assert np.all(weights @ counts <= capacity * (1 + 1e-12) + 2e-9)
    assert np.max(wcet / counts) == ii


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
    II, and that II is bounded below by the GP relaxation."""
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
