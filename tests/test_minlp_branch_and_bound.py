"""Tests for the generic branch-and-bound engine (``tests/bb_engine.py``,
the discretisation oracle's engine) on small synthetic problems."""

import math

import numpy as np
import pytest
from bb_engine import (
    BBSettings,
    BBStatus,
    BranchAndBoundSolver,
    InfeasibleProblemError,
    RelaxationResult,
    VariableBounds,
)


def make_knapsack_solver(values, weights, capacity, settings=BBSettings()):
    """A 0/1 knapsack (maximisation turned into minimisation of -value).

    The LP relaxation is the classic fractional knapsack, which is a valid
    lower bound of the negated value; it lets us verify the engine against
    the exact optimum computed by brute force.
    """
    names = [f"x{i}" for i in range(len(values))]

    def relaxation(bounds: VariableBounds, parent=None) -> RelaxationResult:
        remaining = capacity
        total_value = 0.0
        solution = np.zeros(len(values))
        # Fix the forced variables first.
        for i in range(len(values)):
            lower = int(bounds.lower[i])
            solution[i] = float(lower)
            remaining -= weights[i] * lower
            total_value += values[i] * lower
        if remaining < -1e-9:
            return RelaxationResult.infeasible()
        # Greedy fractional fill of the free variables by value density.
        order = sorted(range(len(values)), key=lambda i: values[i] / weights[i], reverse=True)
        for i in order:
            slack = int(bounds.upper[i] - bounds.lower[i])
            if slack <= 0:
                continue
            take = min(slack, remaining / weights[i])
            take = max(0.0, take)
            solution[i] += take
            total_value += values[i] * take
            remaining -= weights[i] * take
        return RelaxationResult(feasible=True, objective=-total_value, values=solution)

    def evaluate(candidate):
        weight = sum(weights[i] * candidate[i] for i in range(len(values)))
        if weight > capacity + 1e-9:
            return None
        return -sum(values[i] * candidate[i] for i in range(len(values)))

    solver = BranchAndBoundSolver(
        relaxation_solver=relaxation, incumbent_evaluator=evaluate, settings=settings
    )
    bounds = VariableBounds.from_ranges({name: (0, 1) for name in names})
    return solver, bounds


def brute_force_knapsack(values, weights, capacity):
    best = 0.0
    n = len(values)
    for mask in range(1 << n):
        weight = sum(weights[i] for i in range(n) if mask >> i & 1)
        if weight <= capacity:
            best = max(best, sum(values[i] for i in range(n) if mask >> i & 1))
    return best


class TestBranchAndBound:
    def test_knapsack_optimum(self):
        values = [10.0, 13.0, 7.0, 8.0, 2.0]
        weights = [3.0, 4.0, 2.0, 3.0, 1.0]
        capacity = 7.0
        solver, bounds = make_knapsack_solver(values, weights, capacity)
        result = solver.solve(bounds)
        assert result.status is BBStatus.OPTIMAL
        assert -result.objective == pytest.approx(brute_force_knapsack(values, weights, capacity))
        assert result.gap <= 1e-6

    def test_seeded_incumbent_is_used(self):
        values = [5.0, 4.0]
        weights = [3.0, 3.0]
        solver, bounds = make_knapsack_solver(values, weights, capacity=3.0)
        seed = np.array([1, 0])
        result = solver.solve(bounds, initial_incumbent=seed)
        assert result.has_solution
        assert -result.objective == pytest.approx(5.0)

    def test_infeasible_seed_is_ignored(self):
        values = [5.0, 4.0]
        weights = [3.0, 3.0]
        solver, bounds = make_knapsack_solver(values, weights, capacity=3.0)
        result = solver.solve(bounds, initial_incumbent=np.array([1, 1]))
        assert -result.objective == pytest.approx(5.0)

    def test_node_limit_still_returns_incumbent(self):
        values = [10.0, 13.0, 7.0, 8.0, 2.0, 9.0, 4.0]
        weights = [3.0, 4.0, 2.0, 3.0, 1.0, 5.0, 2.0]
        solver, bounds = make_knapsack_solver(
            values, weights, capacity=9.0, settings=BBSettings(max_nodes=1)
        )
        result = solver.solve(bounds, initial_incumbent=np.zeros(7, dtype=np.int64))
        assert result.has_solution
        assert result.nodes_explored <= 1

    def test_infeasible_root_raises(self):
        def relaxation(bounds, parent=None):
            return RelaxationResult.infeasible()

        solver = BranchAndBoundSolver(
            relaxation_solver=relaxation, incumbent_evaluator=lambda c: None
        )
        with pytest.raises(InfeasibleProblemError):
            solver.solve(VariableBounds.from_ranges({"x": (0, 1)}))

    def test_rounding_heuristic_produces_incumbent(self):
        # Chosen so the fractional relaxation is NOT integral at the root
        # (best density item forced in, next one split), guaranteeing that
        # branching happens and the rounding heuristic gets invoked.
        values = [6.0, 5.0, 4.0]
        weights = [4.0, 3.0, 3.0]
        capacity = 6.0
        calls = []

        def rounding(fractional, bounds):
            calls.append(fractional.copy())
            return [np.floor(fractional).astype(np.int64)]

        solver, bounds = make_knapsack_solver(values, weights, capacity)
        solver_with_rounding = BranchAndBoundSolver(
            relaxation_solver=solver._relax,
            incumbent_evaluator=solver._evaluate,
            rounding_heuristic=rounding,
        )
        result = solver_with_rounding.solve(bounds)
        assert result.status is BBStatus.OPTIMAL
        assert -result.objective == pytest.approx(9.0)
        assert calls  # the heuristic ran at least once

    def test_most_fractional_branching_takes_the_first_tie(self):
        boxes = []

        def relaxation(bounds, parent=None):
            boxes.append(bounds)
            if len(boxes) > 1:
                return RelaxationResult.infeasible()
            return RelaxationResult(
                feasible=True, objective=0.0, values=np.array([0.3, 0.5, 1.0, 0.5])
            )

        solver = BranchAndBoundSolver(
            relaxation_solver=relaxation, incumbent_evaluator=lambda candidate: None
        )
        solver.solve(VariableBounds.from_ranges({name: (0, 1) for name in "abcd"}))
        # "b" and "d" are both 0.5: the first of them, "b", is branched on.
        assert [(box.lower.tolist(), box.upper.tolist()) for box in boxes[1:]] == [
            ([0, 0, 0, 0], [1, 0, 1, 1]),
            ([0, 1, 0, 0], [1, 1, 1, 1]),
        ]

    def test_relaxation_result_infeasible_factory(self):
        result = RelaxationResult.infeasible()
        assert not result.feasible
        assert math.isinf(result.objective)
