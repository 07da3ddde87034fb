"""Tests for the LP-based node relaxation of the exact weighted solver."""

import math
import sys

import numpy as np
import pytest
from minlpg_oracle import split_variable_name

from repro.core.objective import ObjectiveWeights
from repro.core import relaxations
from repro.core.relaxations import (
    AllocationRelaxation,
    _PersistentHighsLP,
    highspy_available,
    variable_name,
    variable_names,
)
from repro.core.solution import AllocationSolution
from repro.minlp.bounds import VariableBounds
from repro.reporting.experiments import case_study


def full_bounds(problem, upper=6):
    ranges = {}
    for name in problem.kernel_names:
        for fpga in range(problem.num_fpgas):
            ranges[variable_name(name, fpga)] = (0, upper)
    return VariableBounds.from_ranges(ranges)


class TestVariableNames:
    def test_round_trip(self):
        name = variable_name("CONV1", 3)
        assert split_variable_name(name) == ("CONV1", 3)

    def test_names_with_separators(self):
        name = variable_name("CONV|odd", 0)
        kernel, fpga = split_variable_name(name)
        assert kernel == "CONV|odd" and fpga == 0


class TestAllocationRelaxation:
    def test_root_bound_below_feasible_solutions(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        result = relaxation.solve(full_bounds(tiny_weighted_problem))
        assert result.feasible
        # Any feasible integer solution's goal must be >= the relaxation bound.
        feasible = AllocationSolution(
            problem=tiny_weighted_problem,
            counts={"A": (1, 1), "B": (1, 0), "C": (1, 1)},
        )
        goal = tiny_weighted_problem.weights.goal(feasible.initiation_interval, feasible.spreading)
        assert result.objective <= goal + 1e-6

    def test_pure_ii_bound_matches_gp_relaxation(self, tiny_problem):
        from repro.core.gp_step import solve_gp_step

        relaxation = AllocationRelaxation(
            problem=tiny_problem, weights=ObjectiveWeights(alpha=1.0, beta=0.0)
        )
        result = relaxation.solve(full_bounds(tiny_problem))
        gp = solve_gp_step(tiny_problem)
        # Both are lower bounds on the same integer optimum; the node bound may
        # be tighter (per-FPGA capacity) but never below... it is at least the
        # aggregated bound within numerical safety.
        assert result.objective >= gp.ii_hat - 1e-3
        assert result.feasible

    def test_tighter_bounds_give_tighter_relaxation(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        wide = relaxation.solve(full_bounds(tiny_weighted_problem))
        narrow_bounds = full_bounds(tiny_weighted_problem, upper=1)
        narrow = relaxation.solve(narrow_bounds)
        assert narrow.objective >= wide.objective - 1e-6

    def test_infeasible_box_detected(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        # Force every count to zero: kernels cannot reach one CU.
        ranges = {
            variable_name(k, f): (0, 0)
            for k in tiny_weighted_problem.kernel_names
            for f in range(tiny_weighted_problem.num_fpgas)
        }
        result = relaxation.solve(VariableBounds.from_ranges(ranges))
        assert not result.feasible

    def test_forced_lower_bounds_can_exceed_capacity(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        # Forcing 6 CUs of every kernel on FPGA 0 exceeds the 80 % DSP cap.
        ranges = {}
        for name in tiny_weighted_problem.kernel_names:
            ranges[variable_name(name, 0)] = (6, 6)
            ranges[variable_name(name, 1)] = (0, 6)
        result = relaxation.solve(VariableBounds.from_ranges(ranges))
        assert not result.feasible

    def test_solution_vector_within_bounds(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        bounds = full_bounds(tiny_weighted_problem, upper=3)
        result = relaxation.solve(bounds)
        assert len(result.values) == len(bounds)
        for value, lower, upper in zip(result.values, bounds.lower, bounds.upper):
            assert lower - 1e-6 <= value <= upper + 1e-6

    def test_bounds_must_follow_the_variable_order(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        bounds = full_bounds(tiny_weighted_problem)
        assert bounds.names == variable_names(tiny_weighted_problem)
        shuffled = VariableBounds(bounds.names[::-1], bounds.lower, bounds.upper)
        with pytest.raises(ValueError):
            relaxation.solve(shuffled)

    def test_counters_track_lp_work(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        relaxation.solve(full_bounds(tiny_weighted_problem))
        counters = relaxation.counters()
        assert counters["node_solves"] == 1
        assert counters["feasibility_lps"] == 1  # one aux LP, no bisection
        assert counters["probe_lps"] >= 1
        # Measured: 2 (one feasibility LP, one probe certifying the minimum
        # at the smallest feasible II); the pre-PR 3 feasibility bisection
        # plus golden section needed ~62.
        assert counters["lp_solves"] <= 3
        assert counters["lp_solves"] == counters["feasibility_lps"] + counters["probe_lps"]

    def test_parent_warm_start_keeps_bound_and_saves_probes(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        parent_bounds = full_bounds(tiny_weighted_problem)
        parent = relaxation.solve(parent_bounds)
        # Branch on a variable whose parent feasibility point stays inside
        # the child box: the child reuses the parent's minimum feasible II.
        point = parent.metadata["feasibility"][1]
        index = parent_bounds.names.index(variable_name(tiny_weighted_problem.kernel_names[0], 0))
        child_bounds = parent_bounds.with_upper(index, math.ceil(point[index]))
        before = relaxation.counters()
        warm = relaxation.solve(child_bounds, parent)
        after = relaxation.counters()
        assert after["feasibility_lps"] == before["feasibility_lps"]
        cold = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        ).solve(child_bounds)
        assert warm.feasible == cold.feasible
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)
        assert warm.objective >= parent.objective - 1e-6

    def test_parent_point_outside_child_box_is_not_reused(self, tiny_weighted_problem):
        relaxation = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        )
        parent_bounds = full_bounds(tiny_weighted_problem)
        parent = relaxation.solve(parent_bounds)
        point = parent.metadata["feasibility"][1]
        index = parent_bounds.names.index(variable_name(tiny_weighted_problem.kernel_names[0], 0))
        child_bounds = parent_bounds.with_lower(index, math.floor(point[index]) + 1)
        before = relaxation.counters()["feasibility_lps"]
        warm = relaxation.solve(child_bounds, parent)
        assert relaxation.counters()["feasibility_lps"] == before + 1
        cold = AllocationRelaxation(
            problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
        ).solve(child_bounds)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)

    def test_symmetry_breaking_keeps_bound_valid(self, tiny_weighted_problem):
        with_symmetry = AllocationRelaxation(
            problem=tiny_weighted_problem,
            weights=tiny_weighted_problem.weights,
            symmetry_breaking=True,
        ).solve(full_bounds(tiny_weighted_problem))
        without_symmetry = AllocationRelaxation(
            problem=tiny_weighted_problem,
            weights=tiny_weighted_problem.weights,
            symmetry_breaking=False,
        ).solve(full_bounds(tiny_weighted_problem))
        # Symmetry breaking can only tighten (raise) the bound, never loosen it
        # below the unconstrained relaxation.
        assert with_symmetry.objective >= without_symmetry.objective - 1e-6


@pytest.mark.parametrize("case", ["alex-16", "vgg-16"])
def test_persistent_model_holds_the_column_wise_nonzeros(case):
    """The model HiGHS receives lists every nonzero column by column, rows
    ascending, as ``np.nonzero(matrix.T)`` enumerates them."""
    problem = case_study(case, 70.0)
    model = AllocationRelaxation(problem=problem, weights=problem.weights)._model
    for cost, matrix, rhs, bounds in (
        (model.goal_cost, model.goal_a, model.goal_b, model.goal_bounds),
        (model.feas_cost, model.feas_a, model.feas_b, model.feas_bounds),
    ):
        passed = _PersistentHighsLP(cost, matrix, rhs, bounds)._solver.getLp().a_matrix_
        columns, rows = np.nonzero(matrix.T)
        starts = np.concatenate(([0], np.cumsum(np.bincount(columns, minlength=matrix.shape[1]))))
        assert list(passed.start_) == starts.tolist()
        assert list(passed.index_) == rows.tolist()
        assert list(passed.value_) == matrix[rows, columns].tolist()


def test_missing_binding_names_the_scipy_floor(tiny_weighted_problem, monkeypatch):
    """Without scipy's vendored HiGHS core the first LP fails with one error
    that names the scipy release the solver needs; there is no other path."""
    import scipy.optimize._highspy as package

    monkeypatch.delattr(package, "_core")
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    relaxations._highs.cache_clear()  # failed loads are not cached
    assert not highspy_available()
    relaxation = AllocationRelaxation(
        problem=tiny_weighted_problem, weights=tiny_weighted_problem.weights
    )
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        relaxation.solve(full_bounds(tiny_weighted_problem))
