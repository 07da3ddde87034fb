"""Reference MINLP+G: the weighted branch and bound indexed by variable name.

This is :func:`repro.core.exact.solve_exact_weighted` as it ran before the
search moved to positions, kept as the oracle the production solver is
checked against (``tests/test_minlpg_differential.py``):

* :class:`NamedBounds` -- ``{name: (lower, upper)}`` box bounds;
* :func:`named_branch_and_bound` -- the best-first engine over dict points,
  with the same integrality test, most-fractional branching (first name in
  box order on ties) and incumbent rules;
* :func:`solve_exact_weighted_by_name` -- the solver around it, with
  per-name rounding and an evaluator built on
  :class:`~repro.core.solution.AllocationSolution`.

Node relaxations go through the production
:class:`~repro.core.relaxations.AllocationRelaxation` via a dict-solution
adapter, so a difference the differential finds lies in the search, not in
the LPs.  :func:`numpy_cut_model_minimum` is the NumPy form of the
relaxation's cut-model minimiser, and :func:`split_variable_name` the
inverse of :func:`~repro.core.relaxations.variable_name`.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from repro.core.exact import ExactSettings, solve_exact_min_ii
from repro.core.gp_step import solve_gp_step
from repro.core.heuristic import HeuristicSettings, solve_gp_a
from repro.core.problem import AllocationProblem
from repro.core.relaxations import AllocationRelaxation, variable_name
from repro.core.solution import AllocationSolution, SolveOutcome, SolveStatus
from repro.minlp.bounds import VariableBounds
from repro.minlp.branch_and_bound import BBSettings, BBStatus
from repro.minlp.errors import InfeasibleProblemError


def split_variable_name(name: str) -> tuple[str, int]:
    """Inverse of :func:`~repro.core.relaxations.variable_name`."""
    kernel, _, fpga = name.rpartition("|f")
    return kernel, int(fpga)


@dataclass(frozen=True)
class NamedBounds:
    """Integer box bounds as ``{name: (lower, upper)}``."""

    bounds: Mapping[str, tuple[int, int]]

    def __getitem__(self, name: str) -> tuple[int, int]:
        return self.bounds[name]

    def __iter__(self):
        return iter(self.bounds)

    def lower(self, name: str) -> int:
        return self.bounds[name][0]

    def with_upper(self, name: str, upper: int) -> "NamedBounds":
        lower, old_upper = self.bounds[name]
        return NamedBounds({**self.bounds, name: (lower, min(old_upper, upper))})

    def with_lower(self, name: str, lower: int) -> "NamedBounds":
        old_lower, upper = self.bounds[name]
        return NamedBounds({**self.bounds, name: (max(old_lower, lower), upper)})

    def positional(self) -> VariableBounds:
        return VariableBounds.from_ranges(self.bounds)


@dataclass(frozen=True)
class NamedRelaxation:
    """A node relaxation with its point as ``{name: value}``; ``inner`` is
    the production result (its metadata warm-starts the children)."""

    feasible: bool
    objective: float
    solution: Mapping[str, float] = field(default_factory=dict)
    inner: Any = None


def named_relaxation(relaxation: AllocationRelaxation):
    """The dict-solution adapter over the production relaxation."""

    def solve(bounds: NamedBounds, parent: NamedRelaxation | None) -> NamedRelaxation:
        inner = relaxation.solve(bounds.positional(), None if parent is None else parent.inner)
        if not inner.feasible:
            return NamedRelaxation(feasible=False, objective=math.inf, inner=inner)
        names = list(bounds)
        return NamedRelaxation(
            feasible=True,
            objective=inner.objective,
            solution=dict(zip(names, inner.values.tolist())),
            inner=inner,
        )

    return solve


@dataclass(frozen=True)
class NamedBBResult:
    status: BBStatus
    objective: float
    solution: dict[str, int]
    lower_bound: float
    nodes_explored: int
    counters: Mapping[str, int]

    @property
    def gap(self) -> float:
        if not math.isfinite(self.objective) or not math.isfinite(self.lower_bound):
            return math.inf
        if abs(self.objective) < 1e-12:
            return abs(self.objective - self.lower_bound)
        return max(0.0, (self.objective - self.lower_bound) / abs(self.objective))

    @property
    def has_solution(self) -> bool:
        return bool(self.solution) and math.isfinite(self.objective)


@dataclass(order=True)
class _Node:
    bound: float
    sequence: int
    bounds: NamedBounds = field(compare=False)
    relaxation: NamedRelaxation = field(compare=False)


def named_branch_and_bound(
    relax,
    evaluate,
    rounding,
    settings: BBSettings,
    counters_provider,
    initial_bounds: NamedBounds,
    initial_incumbent: Mapping[str, int] | None,
) -> NamedBBResult:
    """The best-first search over dict points (the former engine)."""
    start = time.perf_counter()
    counter = itertools.count()
    counters_before = dict(counters_provider())

    def finish(status, objective, solution, lower_bound, nodes):
        return NamedBBResult(
            status=status,
            objective=objective,
            solution=solution,
            lower_bound=lower_bound,
            nodes_explored=nodes,
            counters={
                name: value - counters_before.get(name, 0)
                for name, value in counters_provider().items()
            },
        )

    def pruned(bound: float) -> bool:
        return bound >= best_objective - settings.gap_tolerance * max(1.0, abs(best_objective))

    best_objective = math.inf
    best_solution: dict[str, int] = {}
    if initial_incumbent is not None:
        seeded = {name: int(round(value)) for name, value in initial_incumbent.items()}
        value = evaluate(seeded)
        if value is not None:
            best_objective, best_solution = value, seeded

    root = relax(initial_bounds, None)
    if not root.feasible:
        if best_solution:
            return finish(BBStatus.FEASIBLE, best_objective, best_solution, -math.inf, 0)
        raise InfeasibleProblemError("root relaxation is infeasible")

    heap = [_Node(root.objective, next(counter), initial_bounds, root)]
    nodes_explored = 0
    global_lower = root.objective
    while heap:
        if nodes_explored >= settings.max_nodes:
            break
        if time.perf_counter() - start > settings.time_limit_seconds:
            break
        node = heapq.heappop(heap)
        global_lower = node.bound if not heap else min(node.bound, heap[0].bound)
        if pruned(node.bound):
            global_lower = max(global_lower, node.bound)
            break
        nodes_explored += 1

        solution = node.relaxation.solution
        fractional = {
            name: solution[name]
            for name in node.bounds
            if name in solution
            and abs(solution[name] - round(solution[name])) > settings.integrality_tolerance
        }
        if not fractional:
            candidate = {
                name: int(round(solution.get(name, node.bounds.lower(name))))
                for name in node.bounds
            }
            value = evaluate(candidate)
            if value is not None and value < best_objective:
                best_objective, best_solution = value, candidate
            continue

        for proposal in rounding(solution, node.bounds):
            candidate = {name: int(proposal[name]) for name in proposal}
            value = evaluate(candidate)
            if value is not None and value < best_objective:
                best_objective, best_solution = value, candidate

        name, branch_value = min(
            fractional.items(), key=lambda item: abs(item[1] - math.floor(item[1]) - 0.5)
        )
        floor_value = int(math.floor(branch_value))
        lower, upper = node.bounds[name]
        children = []
        if floor_value >= lower:
            children.append(node.bounds.with_upper(name, floor_value))
        if floor_value + 1 <= upper:
            children.append(node.bounds.with_lower(name, floor_value + 1))
        for child in children:
            relaxation = relax(child, node.relaxation)
            if relaxation.feasible and not pruned(relaxation.objective):
                heapq.heappush(
                    heap, _Node(relaxation.objective, next(counter), child, relaxation)
                )

    if heap:
        global_lower = min(global_lower, heap[0].bound)
    elif math.isfinite(best_objective):
        global_lower = best_objective
    if not math.isfinite(best_objective):
        status = BBStatus.NO_SOLUTION if (heap or nodes_explored) else BBStatus.INFEASIBLE
        return finish(status, math.inf, {}, global_lower, nodes_explored)
    gap = (best_objective - global_lower) / max(1e-12, abs(best_objective))
    status = (
        BBStatus.OPTIMAL if gap <= max(settings.gap_tolerance, 1e-9) * 10 else BBStatus.FEASIBLE
    )
    return finish(
        status, best_objective, best_solution, min(global_lower, best_objective), nodes_explored
    )


# --------------------------------------------------------------------------- #
# The solver around the search
# --------------------------------------------------------------------------- #
def named_root_bounds(problem: AllocationProblem) -> NamedBounds:
    """The root box of :func:`repro.core.exact.weighted_root_bounds`, by name."""
    gp_result = solve_gp_step(problem)
    ranges: dict[str, tuple[int, int]] = {}
    for name in problem.kernel_names:
        total_cap = min(
            problem.max_total_cus(name),
            int(math.ceil(problem.wcet[name] / max(gp_result.ii_hat, 1e-12) - 1e-9)) + 1,
        )
        for fpga in range(problem.num_fpgas):
            if problem.platform.is_homogeneous:
                cap = problem.max_cus_per_fpga(name)
            else:
                cap = problem.max_cus_per_fpga(name, fpga)
            ranges[variable_name(name, fpga)] = (0, min(cap, max(1, total_cap)))
    return NamedBounds(ranges)


def candidate_to_counts(
    problem: AllocationProblem, candidate: Mapping[str, int]
) -> dict[str, tuple[int, ...]] | None:
    counts: dict[str, tuple[int, ...]] = {}
    for name in problem.kernel_names:
        per_fpga = []
        for fpga in range(problem.num_fpgas):
            value = candidate.get(variable_name(name, fpga), 0)
            if value < 0:
                return None
            per_fpga.append(int(value))
        if sum(per_fpga) < 1:
            return None
        counts[name] = tuple(per_fpga)
    return counts


def solution_to_candidate(solution: AllocationSolution, canonical: bool) -> dict[str, int]:
    """An allocation as variable values, FPGAs of equal capacity reordered
    by decreasing load when ``canonical``."""
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
    return {
        variable_name(name, new_index): int(solution.counts[name][old_index])
        for name in problem.kernel_names
        for new_index, old_index in enumerate(order)
    }


def solve_exact_weighted_by_name(
    problem: AllocationProblem, settings: ExactSettings = ExactSettings()
) -> SolveOutcome:
    """:func:`repro.core.exact.solve_exact_weighted` over the name-keyed
    search."""
    start = time.perf_counter()
    names = problem.kernel_names
    num_fpgas = problem.num_fpgas
    if not problem.weights.spreading_enabled:
        return solve_exact_min_ii(problem, settings)
    try:
        bounds = named_root_bounds(problem)
    except Exception as error:
        return SolveOutcome(
            method="minlp+g",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            details={"reason": f"relaxed problem infeasible: {error}"},
        )
    relaxation = AllocationRelaxation(
        problem=problem, weights=problem.weights, symmetry_breaking=settings.symmetry_breaking
    )

    def evaluate(candidate: Mapping[str, int]) -> float | None:
        counts = candidate_to_counts(problem, candidate)
        if counts is None:
            return None
        solution = AllocationSolution(problem=problem, counts=counts)
        if not solution.is_feasible():
            return None
        return solution.objective

    def rounding(fractional: Mapping[str, float], node_bounds: NamedBounds):
        rounded: dict[str, int] = {}
        for name in names:
            per_fpga = [fractional.get(variable_name(name, f), 0.0) for f in range(num_fpgas)]
            floors = [int(math.floor(value + 1e-9)) for value in per_fpga]
            target = max(1, int(round(sum(per_fpga))))
            deficit = target - sum(floors)
            order = sorted(
                range(num_fpgas), key=lambda f: per_fpga[f] - floors[f], reverse=True
            )
            for position in range(max(0, deficit)):
                floors[order[position % num_fpgas]] += 1
            for fpga in range(num_fpgas):
                low, up = node_bounds[variable_name(name, fpga)]
                floors[fpga] = min(max(floors[fpga], low), up)
            if sum(floors) < 1:
                floors[order[0]] = max(1, floors[order[0]])
            for fpga in range(num_fpgas):
                rounded[variable_name(name, fpga)] = floors[fpga]
        return [rounded]

    incumbent: dict[str, int] | None = None
    heuristic_outcome: SolveOutcome | None = None
    if settings.seed_with_heuristic:
        heuristic_outcome = solve_gp_a(problem, HeuristicSettings())
        if heuristic_outcome.succeeded and heuristic_outcome.solution is not None:
            incumbent = solution_to_candidate(
                heuristic_outcome.solution, canonical=settings.symmetry_breaking
            )
    try:
        result = named_branch_and_bound(
            named_relaxation(relaxation),
            evaluate,
            rounding,
            BBSettings(
                max_nodes=settings.max_nodes,
                time_limit_seconds=settings.time_limit_seconds,
                gap_tolerance=settings.gap_tolerance,
            ),
            relaxation.counters,
            bounds,
            incumbent,
        )
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
    counts = candidate_to_counts(problem, result.solution)
    assert counts is not None
    return SolveOutcome(
        method="minlp+g",
        status=SolveStatus.OPTIMAL if result.status is BBStatus.OPTIMAL else SolveStatus.FEASIBLE,
        solution=AllocationSolution(problem=problem, counts=counts),
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


# --------------------------------------------------------------------------- #
# The II search's cut-model minimiser, in NumPy
# --------------------------------------------------------------------------- #
def numpy_cut_model_minimum(
    alpha: float,
    beta: float,
    s_low: float,
    s_high: float,
    points: list[float],
    phis: list[float],
    slopes: list[float],
) -> tuple[float, float]:
    """Minimum and minimiser of ``alpha / s + beta * max_i tangent_i(s)`` on
    ``[s_low, s_high]``: every candidate in one array, first minimum wins."""
    bracket = np.array([s_low, s_high])
    s, slope = np.array(points), np.array(slopes)
    offset = np.array(phis) - slope * s
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        candidates = np.concatenate((
            bracket,
            np.sqrt(alpha / (beta * slope)),
            ((offset[:, None] - offset) / (slope - slope[:, None])).ravel(),
        ))
    candidates = candidates[(candidates >= bracket[0]) & (candidates <= bracket[1])]
    model = alpha / candidates + beta * np.max(
        offset[:, None] + slope[:, None] * candidates, axis=0
    )
    best = int(np.argmin(model))
    return float(model[best]), float(candidates[best])
