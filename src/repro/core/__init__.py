"""Core allocation flow: the paper's problem formulation, heuristic and exact solvers."""

from .arrays import ProblemArrays, build_problem_arrays, problem_arrays
from .allocator import (
    AllocatorResult,
    AllocatorSettings,
    GreedyAllocator,
    allocate_cus,
    first_fit_decreasing_allocate,
)
from .discretize import (
    DiscretizationError,
    DiscretizationResult,
    discretization_cache_clear,
    discretize_counts,
    round_counts,
)
from .exact import (
    ExactSettings,
    candidate_ii_values,
    solve_exact_min_ii,
    solve_exact_weighted,
)
from .gp_step import (
    GPStepResult,
    build_vectorized_minmax,
    solve_gp_step,
)
from .heuristic import HeuristicSettings, solve_gp_a
from .objective import (
    ObjectiveWeights,
    PAPER_WEIGHTS,
    balanced_weights,
    default_weights,
    global_spreading,
    initiation_interval,
    kernel_spreading,
)
from .problem import AllocationProblem, CapacityDimension
from .solution import (
    AllocationSolution,
    SolveOutcome,
    SolveStatus,
    solution_from_assignment,
)
from .solvers import METHODS, solve, solver_for
from .validate import ValidationReport, check_outcome_consistency, compare_methods, validate_solution

__all__ = [
    "AllocationProblem",
    "AllocationSolution",
    "AllocatorResult",
    "AllocatorSettings",
    "CapacityDimension",
    "DiscretizationError",
    "DiscretizationResult",
    "ExactSettings",
    "GPStepResult",
    "GreedyAllocator",
    "ProblemArrays",
    "HeuristicSettings",
    "METHODS",
    "ObjectiveWeights",
    "PAPER_WEIGHTS",
    "SolveOutcome",
    "SolveStatus",
    "ValidationReport",
    "allocate_cus",
    "balanced_weights",
    "build_problem_arrays",
    "build_vectorized_minmax",
    "candidate_ii_values",
    "check_outcome_consistency",
    "compare_methods",
    "default_weights",
    "discretization_cache_clear",
    "discretize_counts",
    "first_fit_decreasing_allocate",
    "global_spreading",
    "initiation_interval",
    "kernel_spreading",
    "round_counts",
    "problem_arrays",
    "solution_from_assignment",
    "solve",
    "solve_exact_min_ii",
    "solve_exact_weighted",
    "solve_gp_a",
    "solve_gp_step",
    "solver_for",
    "validate_solution",
]
