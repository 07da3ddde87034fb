"""Tests for the closed-form min-max solver on small hand-checked programs."""

import numpy as np
import pytest

from minmax_oracle import lp_min_max_ii
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem


def minmax(wcet, weights, capacity) -> VectorizedMinMaxProblem:
    return VectorizedMinMaxProblem(
        names=[f"k{index + 1}" for index in range(len(wcet))],
        wcet=np.asarray(wcet, dtype=np.float64),
        weights=np.asarray([weights], dtype=np.float64),
        capacity=np.asarray([capacity], dtype=np.float64),
    )


class TestMinMaxBisection:
    def make_problem(self) -> VectorizedMinMaxProblem:
        # min II  s.t.  N1 >= 10/II, N2 >= 4/II, 0.2*N1 + 0.1*N2 <= 1
        # -> II* = 2 + 0.4 = 2.4.
        return minmax([10.0, 4.0], [0.2, 0.1], 1.0)

    def test_matches_analytic_optimum(self):
        ii, counts = self.make_problem().solve()
        assert ii == pytest.approx(2.4, rel=1e-6)
        assert counts[0] == pytest.approx(10.0 / 2.4, rel=1e-5)

    def test_agrees_with_lp_oracle(self):
        problem = self.make_problem()
        ii, _ = problem.solve()
        expected = lp_min_max_ii(problem.wcet, problem.weights, problem.capacity)
        assert ii == pytest.approx(expected, rel=1e-9)

    def test_minimum_counts_respected(self):
        ii, counts = minmax([1.0, 100.0], [0.01, 0.005], 1.0).solve()
        assert counts[0] >= 1.0 - 1e-9
        assert ii < 1.0  # k2 dominates; k1 stays at its minimum

    def test_infeasible_when_min_counts_exceed_capacity(self):
        with pytest.raises(InfeasibleError):
            minmax([1.0], [2.0], 1.0).solve()

    def test_max_counts_cap_ii(self):
        ii, counts = minmax([10.0], [0.001], 1.0).solve(max_counts=np.asarray([2.0]))
        assert counts[0] <= 2.0 + 1e-9
        assert ii == pytest.approx(5.0, rel=1e-6)

    def test_lower_bound_below_optimum(self):
        problem = self.make_problem()
        ii, _ = problem.solve()
        assert problem.lower_bound() <= ii + 1e-9

    def test_capacity_constraint_validation(self):
        with pytest.raises(ValueError):
            minmax([1.0], [-1.0], 1.0)
        with pytest.raises(ValueError):
            minmax([1.0], [1.0], -1.0)
