"""Ablation: Algorithm 1 variants vs a plain first-fit-decreasing allocator.

Compares the criticality-driven allocator (with and without the ordering
portfolio and the repair pass) against a first-fit-decreasing baseline with
no consolidation bias: Algorithm 1 must achieve no worse II and no more
spreading on the paper's case studies.
"""

import pytest

from repro.core.allocator import (
    AllocatorSettings,
    allocate_cus,
    first_fit_decreasing_allocate,
)
from repro.core.discretize import discretize_counts
from repro.core.solution import AllocationSolution
from repro.reporting.experiments import case_study

CASES = ("alex-16", "alex-32", "vgg-16")


def _totals(problem):
    return discretize_counts(problem).counts


def _achieved_ii(problem, counts):
    return max(
        problem.wcet[name] / max(1, sum(values)) for name, values in counts.items()
    )


@pytest.mark.parametrize("case", CASES)
def test_algorithm1_runtime(benchmark, case):
    problem = case_study(case, resource_limit_percent=70.0)
    totals = _totals(problem)
    result = benchmark(allocate_cus, problem, totals)
    solution = AllocationSolution(problem=problem, counts=dict(result.counts))
    assert solution.is_feasible()


@pytest.mark.parametrize("case", CASES)
def test_ffd_baseline_runtime(benchmark, case):
    problem = case_study(case, resource_limit_percent=70.0)
    totals = _totals(problem)
    benchmark(first_fit_decreasing_allocate, problem, totals)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("constraint", [65.0, 70.0, 80.0])
def test_algorithm1_beats_or_matches_ffd(case, constraint):
    problem = case_study(case, resource_limit_percent=constraint)
    totals = _totals(problem)
    greedy = allocate_cus(problem, totals)
    ffd = first_fit_decreasing_allocate(problem, totals)
    assert _achieved_ii(problem, greedy.counts) <= _achieved_ii(problem, ffd.counts) + 1e-9


@pytest.mark.parametrize("case", ("alex-16", "vgg-16"))
def test_portfolio_and_polish_help_at_tight_constraints(case):
    problem = case_study(case, resource_limit_percent=65.0)
    totals = _totals(problem)
    plain = allocate_cus(problem, totals, AllocatorSettings(portfolio=False, polish=False))
    full = allocate_cus(problem, totals, AllocatorSettings(portfolio=True, polish=True))
    assert _achieved_ii(problem, full.counts) <= _achieved_ii(problem, plain.counts) + 1e-9
