"""Exact solvers for the allocation MINLP (the paper's reference methods).

Two solvers mirror the two MINLP configurations of Section 4:

* :func:`solve_exact_min_ii` -- the ``beta = 0`` configuration ("MINLP" in
  the figures).  The initiation interval depends only on the CU totals, so
  the problem decomposes exactly into (i) a search over the smallest II whose
  required CU totals (ii) pack into the FPGAs (a vector bin-packing
  feasibility test).  Feasibility is monotone in II, so a binary search over
  the discrete candidate II values ``WCET_k / m`` yields the proven optimum.

* :func:`solve_exact_weighted` -- the general configuration with a spreading
  weight ("MINLP+G").  A spatial branch-and-bound over the integer
  ``n_{k,f}`` variables with the convex LP relaxation of
  :mod:`repro.core.relaxations`, seeded with the GP+A incumbent.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..minlp.binpacking import (
    PackingItemType,
    PackingResult,
    VectorBinPacker,
    _strip_assignment,
    packing_key,
    shared_packing_memo,
)
from ..minlp.bounds import VariableBounds
from ..minlp.branch_and_bound import BBSettings, BBStatus, BranchAndBoundSolver
from ..minlp.errors import InfeasibleProblemError
from ..minlp.secant import spreading_of_kernel
from ..obs.trace import span
from .gp_step import solve_gp_step
from .heuristic import HeuristicSettings, solve_gp_a
from .problem import AllocationProblem
from .relaxations import AllocationRelaxation, variable_names
from .solution import AllocationSolution, SolveOutcome, SolveStatus, counts_matrix_feasible


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExactSettings:
    """Limits for the exact solvers.

    Every field is type- and range-checked on construction, so a bad wire
    document fails to decode with an error naming the field; an integral
    float (``3.0``) is taken as its int, which leaves the fingerprint as is.
    """

    max_nodes: int = 2_000
    time_limit_seconds: float = 120.0
    gap_tolerance: float = 1e-6
    packing_placement: str = "balance"
    packer_max_nodes: int = 200_000
    symmetry_breaking: bool = True
    seed_with_heuristic: bool = True

    def __post_init__(self) -> None:
        for name in ("max_nodes", "packer_max_nodes"):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer()
            )
            if isinstance(value, bool) or not integral or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (_is_number(self.time_limit_seconds) and self.time_limit_seconds > 0):
            raise ValueError(
                f"time_limit_seconds must be a number > 0, got {self.time_limit_seconds!r}"
            )
        if not (_is_number(self.gap_tolerance) and self.gap_tolerance >= 0):
            raise ValueError(f"gap_tolerance must be a number >= 0, got {self.gap_tolerance!r}")
        if self.packing_placement not in ("balance", "consolidate"):
            raise ValueError(
                "packing_placement must be 'balance' or 'consolidate',"
                f" got {self.packing_placement!r}"
            )
        for name in ("symmetry_breaking", "seed_with_heuristic"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")


# --------------------------------------------------------------------------- #
# beta = 0: decomposed exact minimum-II solver ("MINLP")
# --------------------------------------------------------------------------- #
def _required_totals(problem: AllocationProblem, ii: float) -> dict[str, int]:
    """Smallest integer CU totals achieving an initiation interval <= ii."""
    totals: dict[str, int] = {}
    for name in problem.kernel_names:
        needed = problem.wcet[name] / ii
        totals[name] = max(1, int(math.ceil(needed - 1e-9)))
    return totals


def _packer_for(
    problem: AllocationProblem, settings: ExactSettings
) -> VectorBinPacker:
    """Packer over the problem's capacity dimensions, with a shared memo.

    The memo is shared between every packer with an identical configuration
    (bin count, capacities, placement, budget), so the feasibility of a CU
    count vector is established once across the candidate-II binary search,
    repeated solves and design-space sweep points.  On a heterogeneous
    platform the packer receives one capacity row per FPGA (class-major
    order) instead of the shared capacity vector.
    """
    dimensions = problem.capacity_dimensions()
    num_fpgas = problem.num_fpgas
    if problem.platform.is_homogeneous:
        packer = VectorBinPacker(
            num_bins=num_fpgas,
            capacity=[dimension.capacity for dimension in dimensions],
            placement=settings.packing_placement,
            max_backtrack_nodes=settings.packer_max_nodes,
        )
    else:
        per_dimension = [dimension.fpga_capacities(num_fpgas) for dimension in dimensions]
        packer = VectorBinPacker(
            num_bins=num_fpgas,
            bin_capacities=[
                [capacities[fpga] for capacities in per_dimension]
                for fpga in range(num_fpgas)
            ],
            placement=settings.packing_placement,
            max_backtrack_nodes=settings.packer_max_nodes,
        )
    packer.memo = shared_packing_memo(packer.config_key())
    return packer


def _pack_items(
    problem: AllocationProblem, totals: Mapping[str, int]
) -> list[PackingItemType]:
    dimensions = problem.capacity_dimensions()
    return [
        PackingItemType(
            name=name,
            count=int(totals[name]),
            size=tuple(dimension.weights.get(name, 0.0) for dimension in dimensions),
        )
        for name in problem.kernel_names
    ]


def candidate_ii_values(problem: AllocationProblem) -> list[float]:
    """All candidate optimal II values ``WCET_k / m``, sorted increasingly.

    The optimum of the ``beta = 0`` problem is always of this form because the
    II is ``max_k WCET_k / N_k`` for integer ``N_k``.  Computed as one
    vectorized outer division over the memoized kernel arrays.
    """
    arrays = problem.arrays()
    per_kernel = [
        wcet / np.arange(1, max(1, cap) + 1)
        for wcet, cap in zip(arrays.wcet, arrays.max_total_cus)
    ]
    return np.unique(np.concatenate(per_kernel)).tolist()


def solve_exact_min_ii(
    problem: AllocationProblem, settings: ExactSettings = ExactSettings()
) -> SolveOutcome:
    """Exact minimum-II allocation (the beta = 0 "MINLP" reference)."""
    start = time.perf_counter()
    try:
        lower_bound = solve_gp_step(problem).ii_hat
    except Exception as error:
        return SolveOutcome(
            method="minlp",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            details={"reason": f"relaxed problem infeasible: {error}"},
        )

    with span("candidate_iis"):
        # All candidate II values, restricted to those not below the
        # continuous lower bound.
        candidates = [
            ii for ii in candidate_ii_values(problem) if ii >= lower_bound - 1e-9
        ]
        if not candidates:
            candidates = [lower_bound]

    packs = 0
    search_nodes = 0
    completion_nodes = 0
    exact_searches = 0
    seed_packs = 0

    # Heuristic packing seed (lazy).  When the exact search exhausts its node
    # budget, the reported infeasibility is not proven, and treating it as a
    # true failure drives the binary search to a *larger* II than the optimum
    # (observed on alex-16 x 4 FPGAs at R <= 80 %, where the gp+a allocation
    # at a smaller II is feasible but the search misses it within budget).
    # The gp+a allocation is a feasible packing of its own CU totals, and
    # packing feasibility is monotone in the count vector, so any candidate
    # whose required totals are componentwise dominated by the heuristic's
    # counts is feasible -- the proof is the heuristic assignment minus the
    # surplus CUs.  The seed is consulted only after a budget-exhausted
    # failure, so proven results (and recorded baselines) are untouched.
    seed_counts: dict[str, tuple[int, ...]] | None | bool = False  # False = not yet computed

    def heuristic_seed() -> dict[str, tuple[int, ...]] | None:
        nonlocal seed_counts
        if seed_counts is False:
            seed_counts = None
            heuristic = solve_gp_a(problem, HeuristicSettings())
            if heuristic.succeeded and heuristic.solution is not None:
                seed_counts = {
                    name: tuple(heuristic.solution.counts[name])
                    for name in problem.kernel_names
                }
        return seed_counts  # type: ignore[return-value]

    def seeded_result(items: list[PackingItemType]) -> PackingResult | None:
        if not settings.seed_with_heuristic:
            return None
        seed = heuristic_seed()
        if seed is None:
            return None
        seed_totals = [sum(seed[item.name]) for item in items]
        if any(total < item.count for total, item in zip(seed_totals, items)):
            return None
        wanted = [item.count for item in items]
        return PackingResult(
            feasible=True,
            assignment=_strip_assignment(seed, seed_totals, wanted, items),
            exact=True,
        )

    def pack(ii: float):
        nonlocal packs, search_nodes, completion_nodes, exact_searches, seed_packs
        items = _pack_items(problem, _required_totals(problem, ii))
        result = packer.pack(items)
        packs += 1
        search_nodes += packer.last_nodes
        completion_nodes += packer.last_completion_nodes
        if packer.last_nodes or packer.last_completion_nodes:
            exact_searches += 1
        if not result.feasible and not result.exact:
            seeded = seeded_result(items)
            if seeded is not None:
                result = seeded
                seed_packs += 1
                if packer.memo is not None:  # repeat probes answer directly
                    packer.memo.put(packing_key(items), seeded)
        return result

    def counters() -> dict[str, int]:
        return {
            "packs": packs,
            "packer_search_nodes": search_nodes,
            "packer_completion_nodes": completion_nodes,
            "packer_exact_searches": exact_searches,
            "packer_seed_packs": seed_packs,
            "packing_memo_hits": packer.memo_hits,
            "packing_memo_misses": packer.memo_misses,
            "candidates_considered": len(candidates),
        }

    feasible_index: int | None = None
    feasible_packing = None
    with span("pack_search"):
        packer = _packer_for(problem, settings)
        low, high = 0, len(candidates) - 1
        # Check the largest candidate first: if even that fails, it is
        # infeasible.
        packing = pack(candidates[high])
        if not packing.feasible:
            return SolveOutcome(
                method="minlp",
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime_seconds=time.perf_counter() - start,
                details={"reason": "even one CU per kernel cannot be packed"},
                counters=counters(),
            )
        feasible_index, feasible_packing = high, packing

        while low < high:
            mid = (low + high) // 2
            packing = pack(candidates[mid])
            if packing.feasible:
                feasible_index, feasible_packing = mid, packing
                high = mid
            else:
                low = mid + 1

    assert feasible_index is not None and feasible_packing is not None
    with span("finalize"):
        counts = {
            name: tuple(feasible_packing.assignment[name]) for name in problem.kernel_names
        }
        solution = AllocationSolution(problem=problem, counts=counts)
        runtime = time.perf_counter() - start
        outcome = SolveOutcome(
            method="minlp",
            status=SolveStatus.OPTIMAL,
            solution=solution,
            runtime_seconds=runtime,
            lower_bound=problem.weights.alpha * max(lower_bound, 0.0),
            nodes_explored=len(candidates),
            details={
                "optimal_ii": solution.initiation_interval,
                "candidates_considered": len(candidates),
            },
            counters=counters(),
        )
    return outcome


# --------------------------------------------------------------------------- #
# General weighted objective: spatial branch-and-bound ("MINLP+G")
# --------------------------------------------------------------------------- #
def weighted_root_bounds(problem: AllocationProblem) -> VariableBounds:
    """Root box bounds of the weighted exact search, over
    :func:`~repro.core.relaxations.variable_names` (the (K, F) grid).

    Upper bounds: no optimal solution uses more CUs of a kernel than needed
    to reach the relaxed GP optimum (extra CUs cannot reduce II further and
    only increase spreading), nor more than fit on one FPGA.  Raises when the
    relaxed problem is infeasible (propagated from :func:`solve_gp_step`).
    """
    gp_result = solve_gp_step(problem)
    arrays = problem.arrays()
    upper: list[int] = []
    for name, per_fpga, max_total in zip(arrays.names, arrays.fpga_max_cus, arrays.max_total_cus):
        total_cap = max(1, min(
            max_total,
            int(math.ceil(problem.wcet[name] / max(gp_result.ii_hat, 1e-12) - 1e-9)) + 1,
        ))
        upper += [min(cap, total_cap) for cap in per_fpga]
    return VariableBounds(variable_names(problem), [0] * len(upper), upper)


def solve_exact_weighted(
    problem: AllocationProblem,
    settings: ExactSettings = ExactSettings(),
) -> SolveOutcome:
    """Exact (bounded-gap) solver for the weighted II + spreading objective."""
    start = time.perf_counter()
    num_kernels, num_fpgas = len(problem.kernel_names), problem.num_fpgas
    wcets = [problem.wcet[name] for name in problem.kernel_names]

    if not problem.weights.spreading_enabled:
        return solve_exact_min_ii(problem, settings)

    try:
        with span("root_bounds"):
            bounds = weighted_root_bounds(problem)
    except Exception as error:  # infeasible relaxation
        return SolveOutcome(
            method="minlp+g",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            details={"reason": f"relaxed problem infeasible: {error}"},
        )

    relaxation = AllocationRelaxation(
        problem=problem,
        weights=problem.weights,
        symmetry_breaking=settings.symmetry_breaking,
    )

    # The engine's points are the (K, F) grid of CU counts, flattened.
    def evaluate(candidate: np.ndarray) -> float | None:
        """The objective of an integer point, ``None`` when infeasible
        (the values :attr:`AllocationSolution.objective` and
        :meth:`AllocationSolution.is_feasible` give)."""
        grid = candidate.reshape(num_kernels, num_fpgas)
        if (grid < 0).any():
            return None
        rows = grid.tolist()
        totals = [sum(row) for row in rows]
        if min(totals) < 1 or not counts_matrix_feasible(problem, grid.astype(np.float64)):
            return None
        ii = max(wcet / total for wcet, total in zip(wcets, totals))
        return problem.weights.goal(ii, max(spreading_of_kernel(row) for row in rows))

    def rounding(values: np.ndarray, node_bounds: VariableBounds) -> list[np.ndarray]:
        """One proposal: each kernel's fractional total, rounded, laid out
        by largest remainders and clamped into the node's box."""
        rounded: list[int] = []
        for per_fpga, lows, ups in zip(
            values.reshape(num_kernels, num_fpgas).tolist(),
            node_bounds.lower.reshape(num_kernels, num_fpgas).tolist(),
            node_bounds.upper.reshape(num_kernels, num_fpgas).tolist(),
        ):
            floors = [int(math.floor(value + 1e-9)) for value in per_fpga]
            target = max(1, int(round(sum(per_fpga))))
            deficit = target - sum(floors)
            order = sorted(
                range(num_fpgas), key=lambda f: per_fpga[f] - floors[f], reverse=True
            )
            for position in range(max(0, deficit)):
                floors[order[position % num_fpgas]] += 1
            floors = [min(max(floor, low), up) for floor, low, up in zip(floors, lows, ups)]
            if sum(floors) < 1:
                floors[order[0]] = max(1, floors[order[0]])
            rounded += floors
        return [np.array(rounded, dtype=np.int64)]

    incumbent: np.ndarray | None = None
    heuristic_outcome: SolveOutcome | None = None
    if settings.seed_with_heuristic:
        with span("heuristic_seed"):
            heuristic_outcome = solve_gp_a(problem, HeuristicSettings())
            if heuristic_outcome.succeeded and heuristic_outcome.solution is not None:
                incumbent = _solution_to_candidate(heuristic_outcome.solution, canonical=settings.symmetry_breaking)

    solver = BranchAndBoundSolver(
        relaxation_solver=relaxation.solve,
        incumbent_evaluator=evaluate,
        rounding_heuristic=rounding,
        settings=BBSettings(
            max_nodes=settings.max_nodes,
            time_limit_seconds=settings.time_limit_seconds,
            gap_tolerance=settings.gap_tolerance,
        ),
        counters_provider=relaxation.counters,
    )
    try:
        with span("bb_search"):
            result = solver.solve(bounds, initial_incumbent=incumbent)
    except InfeasibleProblemError:
        return SolveOutcome(
            method="minlp+g",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            details={"reason": "root relaxation infeasible"},
        )

    runtime = time.perf_counter() - start
    if not result.has_solution:
        return SolveOutcome(
            method="minlp+g",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=runtime,
            lower_bound=result.lower_bound,
            nodes_explored=result.nodes_explored,
            details={"reason": "no feasible integer point found within limits"},
            counters={**result.counters, "bb_nodes": result.nodes_explored},
        )

    with span("finalize"):
        solution = AllocationSolution(
            problem=problem, counts=_candidate_to_counts(problem, result.solution)
        )
        status = SolveStatus.OPTIMAL if result.status is BBStatus.OPTIMAL else SolveStatus.FEASIBLE
        outcome = SolveOutcome(
            method="minlp+g",
            status=status,
            solution=solution,
            runtime_seconds=runtime,
            lower_bound=result.lower_bound,
            nodes_explored=result.nodes_explored,
            details={
                "gap": result.gap,
                "seeded": incumbent is not None,
                "heuristic_objective": heuristic_outcome.objective if heuristic_outcome else math.nan,
            },
            counters={**result.counters, "bb_nodes": result.nodes_explored},
        )
    return outcome


# --------------------------------------------------------------------------- #
# Helpers shared by the exact solvers
# --------------------------------------------------------------------------- #
def _candidate_to_counts(
    problem: AllocationProblem, candidate: np.ndarray
) -> dict[str, tuple[int, ...]]:
    """The ``{kernel: per-FPGA counts}`` of a flattened (K, F) grid."""
    rows = candidate.reshape(len(problem.kernel_names), problem.num_fpgas).tolist()
    return {name: tuple(row) for name, row in zip(problem.kernel_names, rows)}


def _solution_to_candidate(solution: AllocationSolution, canonical: bool = True) -> np.ndarray:
    """Convert an allocation into branch-and-bound variable values (the
    flattened (K, F) grid).

    With ``canonical=True`` the FPGAs are re-ordered by decreasing load of
    the dominant dimension so that the candidate satisfies the
    symmetry-breaking constraints of the relaxation.  Only identically
    capped FPGAs are interchangeable, so the reordering happens per run of
    equal-capacity FPGAs (on a homogeneous platform that is the whole
    platform, the original behaviour; it matches the capacity-equality
    notion of the relaxation's symmetry rows).
    """
    problem = solution.problem
    platform = problem.platform
    caps = [
        (platform.fpga_resource_limit(f), platform.fpga_bandwidth_limit(f))
        for f in range(problem.num_fpgas)
    ]
    order: list[int] = []
    start = 0
    while start < problem.num_fpgas:
        end = start
        while end < problem.num_fpgas and caps[end] == caps[start]:
            end += 1
        block = list(range(start, end))
        if canonical:
            max_usage = solution.max_usage_per_fpga()
            block.sort(key=lambda f: max_usage[f], reverse=True)
        order.extend(block)
        start = end
    return np.array(
        [[solution.counts[name][fpga] for fpga in order] for name in problem.kernel_names],
        dtype=np.int64,
    ).ravel()
