"""Reference discretiser: the paper's floor/ceil branch and bound.

The paper (Section 3.2.2) enforces integrality of the GP totals "by a
branch-and-bound technique similar to those used in ILP".  This module keeps
that search, on top of the generic engine of :mod:`repro.minlp`, as the
oracle the production threshold search in :mod:`repro.core.discretize` is
checked against.  It is the former production discretiser with two
differences: it has no cross-call memo, and every node solves its
relaxation with the bisection of ``tests/minmax_oracle.py`` instead of the
production closed form.  Its result also carries the search's node count.

It carries one known defect, kept on purpose so differential tests can
recognise it: the search is seeded with ``floor(N̂)`` without checking the
per-kernel caps ``max_total_cus``, and can return that seed as proven
optimal.  Callers must only compare against answers that respect the caps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from minmax_oracle import bisection_min_max
from repro.core.discretize import DiscretizationError, DiscretizationResult
from repro.core.gp_step import build_vectorized_minmax
from repro.core.problem import AllocationProblem
from repro.gp.errors import InfeasibleError
from repro.minlp.bounds import VariableBounds
from repro.minlp.branch_and_bound import (
    BBSettings,
    BBStatus,
    BranchAndBoundSolver,
    RelaxationResult,
)
from repro.minlp.errors import InfeasibleProblemError


@dataclass(frozen=True)
class OracleResult(DiscretizationResult):
    """A discretisation plus the search's node count."""

    nodes_explored: int = 0


def oracle_caps(problem: AllocationProblem) -> dict[str, int]:
    """The per-kernel upper bounds of the search box."""
    return {name: max(1, problem.max_total_cus(name)) for name in problem.kernel_names}


def _aggregate_feasible(problem: AllocationProblem, counts: Mapping[str, int]) -> bool:
    arrays = problem.arrays()
    return arrays.aggregate_feasible(arrays.vector(counts), problem.num_fpgas)


def _achieved_ii(problem: AllocationProblem, counts: Mapping[str, int]) -> float:
    return max(problem.wcet[name] / counts[name] for name in problem.kernel_names)


def oracle_discretize(
    problem: AllocationProblem,
    counts_hat: Mapping[str, float],
    max_nodes: int = 20_000,
    time_limit_seconds: float = 30.0,
) -> OracleResult:
    """Branch-and-bound discretisation of the fractional GP totals.

    Finds integer ``N_k >= 1`` minimising ``max_k WCET_k / N_k`` subject to
    the aggregated capacity constraints, starting the search from the
    fractional optimum (floor/ceil branching as in the paper).

    Raises
    ------
    DiscretizationError
        If no feasible integer assignment exists.
    """
    names = problem.kernel_names
    arrays = problem.arrays()
    upper_bounds = oracle_caps(problem)

    bounds = VariableBounds.from_ranges({name: (1, upper_bounds[name]) for name in names})
    minmax = build_vectorized_minmax(problem)
    wcet = arrays.wcet
    aggregate_capacity = arrays.aggregate_capacity
    weight_matrix = arrays.weights

    # Points are kernel-indexed vectors in ``names`` order.
    def relaxation(node_bounds: VariableBounds, parent=None) -> RelaxationResult:
        min_counts = node_bounds.lower.astype(np.float64)
        max_counts = node_bounds.upper.astype(np.float64)
        try:
            ii, count_vector = bisection_min_max(minmax, min_counts, max_counts)
        except InfeasibleError:
            return RelaxationResult.infeasible()
        return RelaxationResult(
            feasible=True, objective=ii, values=np.asarray(count_vector, dtype=np.float64)
        )

    def evaluate(candidate: np.ndarray) -> float | None:
        count_vector = candidate.astype(np.float64)
        if np.any(count_vector < 1):
            return None
        if not np.all(weight_matrix @ count_vector <= aggregate_capacity + 1e-9):
            return None
        return float(np.max(wcet / count_vector))

    def rounding(fractional: np.ndarray, node_bounds: VariableBounds) -> list[np.ndarray]:
        values = fractional.tolist()
        lower, upper = node_bounds.lower.tolist(), node_bounds.upper.tolist()
        floor_candidate = [max(low, math.floor(value)) for low, value in zip(lower, values)]
        ceil_candidate = [
            min(up, max(1, math.ceil(value - 1e-9))) for up, value in zip(upper, values)
        ]
        return [np.array(ceil_candidate), np.array(floor_candidate)]

    solver = BranchAndBoundSolver(
        relaxation_solver=relaxation,
        incumbent_evaluator=evaluate,
        rounding_heuristic=rounding,
        settings=BBSettings(max_nodes=max_nodes, time_limit_seconds=time_limit_seconds),
    )

    seed = {name: max(1, int(math.floor(counts_hat.get(name, 1.0)))) for name in names}
    if not _aggregate_feasible(problem, seed):
        seed = {name: 1 for name in names}
    try:
        result = solver.solve(bounds, initial_incumbent=np.array([seed[name] for name in names]))
    except InfeasibleProblemError as error:
        raise DiscretizationError(str(error)) from error
    if not result.has_solution:
        raise DiscretizationError("no feasible integer CU totals found")
    counts = dict(zip(names, result.solution.tolist()))
    return OracleResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        nodes_explored=result.nodes_explored,
        proven_optimal=result.status is BBStatus.OPTIMAL,
    )
