"""Ablation: discretisation of the GP result (Sec. 3.2.2).

The paper discretises the GP result with a floor/ceil branch and bound; the
production code solves the same problem exactly by a threshold search.  The
ablation compares both against the naive ceil-then-trim rounding baseline:
neither exact method may be worse, the two must reach the same II, and the
benchmarks record what each costs.  The branch and bound runs from the test
oracle in ``tests/discretize_oracle.py``.
"""

import sys
from pathlib import Path

import pytest

from repro.core.discretize import discretize_counts, round_counts
from repro.core.gp_step import solve_gp_step
from repro.reporting.experiments import case_study

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from discretize_oracle import oracle_discretize  # noqa: E402

CASES = ("alex-16", "alex-32", "vgg-16")


@pytest.mark.parametrize("case", CASES)
def test_threshold_discretization_runtime(benchmark, case):
    problem = case_study(case, resource_limit_percent=70.0)
    gp = solve_gp_step(problem)
    result = benchmark(discretize_counts, problem, use_cache=False)
    assert result.ii >= gp.ii_hat - 1e-9


@pytest.mark.parametrize("case", CASES)
def test_bb_discretization_runtime(benchmark, case):
    problem = case_study(case, resource_limit_percent=70.0)
    gp = solve_gp_step(problem)
    result = benchmark(oracle_discretize, problem, gp.counts_hat)
    assert result.ii >= gp.ii_hat - 1e-9


@pytest.mark.parametrize("case", CASES)
def test_naive_rounding_runtime(benchmark, case):
    problem = case_study(case, resource_limit_percent=70.0)
    gp = solve_gp_step(problem)
    result = benchmark(round_counts, problem, gp.counts_hat)
    assert result.ii >= gp.ii_hat - 1e-9


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("constraint", [60.0, 70.0, 80.0])
def test_bb_never_worse_than_rounding(case, constraint):
    problem = case_study(case, resource_limit_percent=constraint)
    gp = solve_gp_step(problem)
    threshold = discretize_counts(problem)
    bb = oracle_discretize(problem, gp.counts_hat)
    rounded = round_counts(problem, gp.counts_hat)
    assert bb.ii <= rounded.ii + 1e-9
    assert threshold.ii == pytest.approx(bb.ii, rel=1e-12)
