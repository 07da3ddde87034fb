"""The bisection minimum-II solver that ``minlp`` used before the walk down
the candidate list, kept as a differential oracle.

It binary-searches the candidate II values ``WCET_k / m`` (feasibility is
monotone in II), packing each probe's least CU totals with the same vector
bin packer.  A probe whose packer budget runs out counts as infeasible; when
the GP+A counts dominate such a probe, the GP+A assignment minus the surplus
CUs answers it instead.  Its ``optimal`` status is therefore only as good as
its probes: ``counters["unproven_probes"]`` counts the ones the packer left
undecided.  The packer gets no memo, so no answer depends on an earlier
solve.
"""

from __future__ import annotations

import math
import time

from repro.core.exact import ExactSettings, _pack_items, _packer_for, candidate_ii_values
from repro.core.gp_step import solve_gp_step
from repro.core.heuristic import HeuristicSettings, solve_gp_a
from repro.core.problem import AllocationProblem
from repro.core.solution import AllocationSolution, SolveOutcome, SolveStatus


def _required_totals(problem: AllocationProblem, ii: float) -> list[int]:
    """Smallest integer CU totals achieving an initiation interval <= ii."""
    return [max(1, int(math.ceil(problem.wcet[name] / ii - 1e-9))) for name in problem.kernel_names]


def _strip_assignment(assignment, wanted, names) -> dict[str, tuple[int, ...]]:
    """Remove surplus CUs from a packing of larger counts (highest bins
    first); removing CUs keeps every bin within capacity."""
    stripped = {}
    for name, count in zip(names, wanted):
        per_bin = list(assignment[name])
        surplus = sum(per_bin) - count
        for bin_index in range(len(per_bin) - 1, -1, -1):
            take = min(per_bin[bin_index], max(surplus, 0))
            per_bin[bin_index] -= take
            surplus -= take
        stripped[name] = tuple(per_bin)
    return stripped


def solve_bisection_min_ii(
    problem: AllocationProblem, settings: ExactSettings = ExactSettings()
) -> SolveOutcome:
    start = time.perf_counter()
    try:
        lower_bound = solve_gp_step(problem).ii_hat
    except Exception as error:
        return SolveOutcome(
            method="minlp",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            details={"reason": f"relaxed problem infeasible: {error}"},
        )
    candidates = candidate_ii_values(problem, floor=lower_bound - 1e-9) or [lower_bound]
    packer = _packer_for(problem, settings)
    packer.memo = None
    names = problem.kernel_names
    seed_counts: list = []  # [counts or None] once computed
    probes = unproven = 0

    def seeded(wanted: list[int]):
        if not settings.seed_with_heuristic:
            return None
        if not seed_counts:
            heuristic = solve_gp_a(problem, HeuristicSettings())
            seed_counts.append(heuristic.solution.counts if heuristic.succeeded else None)
        seed = seed_counts[0]
        if seed is None or any(sum(seed[name]) < count for name, count in zip(names, wanted)):
            return None
        return _strip_assignment(seed, wanted, names)

    def pack(ii: float):
        nonlocal probes, unproven
        totals = _required_totals(problem, ii)
        result = packer.pack(_pack_items(problem, totals))
        probes += 1
        if result.feasible:
            return result.assignment
        if not result.exact:
            unproven += 1
            return seeded(totals)
        return None

    def counters() -> dict[str, int]:
        return {"probes": probes, "unproven_probes": unproven}

    low, high = 0, len(candidates) - 1
    best = pack(candidates[high])
    if best is None:
        return SolveOutcome(
            method="minlp",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            counters=counters(),
        )
    while low < high:
        mid = (low + high) // 2
        assignment = pack(candidates[mid])
        if assignment is not None:
            best, high = assignment, mid
        else:
            low = mid + 1
    solution = AllocationSolution(
        problem=problem, counts={name: tuple(best[name]) for name in names}
    )
    return SolveOutcome(
        method="minlp",
        status=SolveStatus.OPTIMAL,
        solution=solution,
        runtime_seconds=time.perf_counter() - start,
        lower_bound=problem.weights.alpha * max(lower_bound, 0.0),
        counters=counters(),
    )
