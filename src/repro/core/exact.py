"""Exact solvers for the allocation MINLP (the paper's reference methods).

Two solvers mirror the two MINLP configurations of Section 4:

* :func:`solve_exact_min_ii` -- the ``beta = 0`` configuration ("MINLP" in
  the figures).  The initiation interval depends only on the CU totals, so
  the problem decomposes exactly into (i) a search over the smallest II whose
  required CU totals (ii) pack into the FPGAs (a vector bin-packing
  feasibility test).  Feasibility is monotone in II, so a binary search over
  the discrete candidate II values ``WCET_k / m`` yields the proven optimum.

* :func:`solve_exact_weighted` -- the general configuration with a spreading
  weight ("MINLP+G").  The same candidate IIs fix the least CU totals; with
  the totals fixed, the spreading depends only on how each total splits
  over the FPGAs, so each candidate is a packing of allowed splits under a
  spreading cap (:mod:`repro.minlp.split_search`).  Candidates are visited
  in order of a closed-form bound, seeded with the GP+A incumbent.
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
from ..minlp.split_search import SearchBudgetExhausted, SplitPacker
from ..obs.trace import span
from .gp_step import solve_gp_step
from .heuristic import HeuristicSettings, solve_gp_a
from .problem import AllocationProblem
from .solution import CAPACITY_TOLERANCE, AllocationSolution, SolveOutcome, SolveStatus


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExactSettings:
    """Limits for the exact solvers.

    ``packer_max_nodes`` bounds the ``minlp`` bin packer per probe and the
    ``minlp+g`` split search over the whole solve; ``gap_tolerance`` and
    ``seed_with_heuristic`` steer ``minlp+g``.  No solver reads
    ``max_nodes``, ``time_limit_seconds`` or ``symmetry_breaking``: they
    stay fields so that request fingerprints do not move.

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


def candidate_ii_values(problem: AllocationProblem, floor: float = 0.0) -> list[float]:
    """All candidate optimal II values ``WCET_k / m`` not below ``floor``,
    sorted increasingly.

    The II of any allocation is of this form because it is
    ``max_k WCET_k / N_k`` for integer ``N_k``.  A positive ``floor`` also
    bounds each kernel's ``m``, so a kernel with a huge CU cap lists only
    the values that can matter.
    """
    arrays = problem.arrays()
    per_kernel = []
    for wcet, cap in zip(arrays.wcet, arrays.max_total_cus):
        count = max(1, cap)
        if floor > 0:
            count = min(count, int(wcet / floor) + 1)
        per_kernel.append(wcet / np.arange(1, count + 1))
    values = np.unique(np.concatenate(per_kernel))
    return values[values >= floor].tolist()


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
        candidates = candidate_ii_values(problem, floor=lower_bound - 1e-9)
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
# General weighted objective: candidate-II decomposition ("MINLP+G")
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Candidate:
    """One candidate of the weighted search: least CU totals for a candidate
    II, the II they reach and the bound no allocation with them beats."""

    bound: float
    ii: float
    totals: tuple[int, ...]


def _weighted_candidates(problem: AllocationProblem, ii_hat: float) -> list[_Candidate]:
    """Every distinct least-totals vector ``N(c)`` of a candidate II
    ``c >= ii_hat``, in ascending order of its bound.

    An allocation with II ``c`` has totals ``>= N(c)``, and dropping the
    surplus CUs keeps it feasible and lowers its spreading, so some optimum
    uses exactly ``N(c)`` for its own II.  With the totals fixed, the least
    spreading ``phi_min(N_k)`` of kernel ``k`` is its most concentrated
    split: ``n / (1 + n)`` is concave, so the minimum over the box of parts
    lies at a vertex, as many parts of the largest FPGA's cap as possible
    plus the remainder.  That gives the bound
    ``alpha * II(N) + beta * max_k phi_min(N_k)``.
    """
    arrays = problem.arrays()
    values = np.asarray(candidate_ii_values(problem, floor=ii_hat - 1e-9))
    totals = np.maximum(1, np.ceil(arrays.wcet[:, None] / values[None, :] - 1e-9))
    distinct = np.ones(totals.shape[1], dtype=bool)
    distinct[1:] = (totals[:, 1:] != totals[:, :-1]).any(axis=0)
    totals = totals[:, distinct]
    # phi_min of every kernel and candidate at once (inf: more parts than
    # FPGAs, or a kernel no FPGA holds one CU of).
    part_caps = np.array([max(caps) for caps in arrays.fpga_max_cus], dtype=np.float64)[:, None]
    divisor = np.maximum(part_caps, 1.0)
    full, rest = np.floor_divide(totals, divisor), np.remainder(totals, divisor)
    spreading = full * (divisor / (1.0 + divisor)) + rest / (1.0 + rest)
    spreading[(full + (rest > 0) > problem.num_fpgas) | (part_caps < 1)] = math.inf
    spreading = spreading.max(axis=0)
    ii = (arrays.wcet[:, None] / totals).max(axis=0)
    bound = problem.weights.alpha * ii + problem.weights.beta * spreading
    candidates = [
        _Candidate(value, rate, tuple(column))
        for value, rate, column in zip(
            bound.tolist(), ii.tolist(), totals.astype(np.int64).T.tolist()
        )
        if value < math.inf
    ]
    candidates.sort(key=lambda candidate: candidate.bound)
    return candidates


def _split_packer(problem: AllocationProblem, settings: ExactSettings) -> SplitPacker:
    """The split search over the problem's capacity dimensions."""
    arrays = problem.arrays()
    return SplitPacker(
        sizes=arrays.weights.T.tolist(),
        capacities=arrays.fpga_capacity.T.tolist(),
        part_caps=[max(caps) for caps in arrays.fpga_max_cus],
        tolerance=CAPACITY_TOLERANCE,
        max_nodes=settings.packer_max_nodes,
    )


def solve_exact_weighted(
    problem: AllocationProblem,
    settings: ExactSettings = ExactSettings(),
) -> SolveOutcome:
    """Exact allocation for the weighted II + spreading objective.

    Visits the candidates of :func:`_weighted_candidates` in bound order and
    stops once a bound reaches the incumbent (less ``gap_tolerance``).  The
    incumbent starts from the GP+A allocation and one greedy split packing
    per candidate; then the complete split search tries each remaining
    candidate under the spreading cap the incumbent leaves it, lowering the
    cap below every packing it finds.  ``packer_max_nodes`` bounds the split
    search over the whole solve: when it runs out the outcome is
    ``feasible``, bounded by the first candidate left undecided.
    """
    start = time.perf_counter()
    if not problem.weights.spreading_enabled:
        return solve_exact_min_ii(problem, settings)
    alpha, beta = problem.weights.alpha, problem.weights.beta

    with span("candidates"):
        try:
            ii_hat = solve_gp_step(problem).ii_hat
        except Exception as error:  # infeasible relaxation
            return SolveOutcome(
                method="minlp+g",
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime_seconds=time.perf_counter() - start,
                details={"reason": f"relaxed problem infeasible: {error}"},
            )
        candidates = _weighted_candidates(problem, ii_hat)

    incumbent = math.inf
    best: AllocationSolution | None = None
    heuristic_outcome: SolveOutcome | None = None
    if settings.seed_with_heuristic:
        with span("heuristic_seed"):
            heuristic_outcome = solve_gp_a(problem, HeuristicSettings())
        if heuristic_outcome.succeeded and heuristic_outcome.solution is not None:
            best = heuristic_outcome.solution
            incumbent = best.objective
    seeded = best is not None

    def target() -> float:
        """Objectives at or above this do not improve the incumbent."""
        if math.isinf(incumbent):
            return incumbent
        return incumbent - settings.gap_tolerance * max(1.0, abs(incumbent))

    def accept(candidate: _Candidate, grid: list[list[int]], spreading: float) -> None:
        nonlocal incumbent, best
        best = AllocationSolution(
            problem=problem,
            counts={name: tuple(row) for name, row in zip(problem.kernel_names, grid)},
        )
        incumbent = alpha * candidate.ii + beta * spreading

    packer = _split_packer(problem, settings)
    with span("greedy_pass"):
        for candidate in candidates:
            if candidate.bound >= target():
                break
            packed = packer.greedy(candidate.totals, (target() - alpha * candidate.ii) / beta)
            if packed is not None:
                accept(candidate, *packed)

    visited = 0
    exhausted = False
    lower_bound = math.inf
    with span("split_search"):
        for candidate in candidates:
            if candidate.bound >= target():
                lower_bound = candidate.bound
                break
            visited += 1
            failed: set = set()
            cap = math.inf
            try:
                while candidate.bound < target():
                    # Strictly below the last packing's spreading, even when
                    # rounding leaves the incumbent's cap a hair above it.
                    cap = min(cap, (target() - alpha * candidate.ii) / beta)
                    packed = packer.search(candidate.totals, cap, failed)
                    if packed is None:
                        break
                    accept(candidate, *packed)
                    cap = packed[1]
            except SearchBudgetExhausted:
                exhausted = True
                lower_bound = candidate.bound
                break

    counters = {
        "candidates_considered": len(candidates),
        "candidates_visited": visited,
        "split_search_nodes": packer.nodes,
    }
    runtime = time.perf_counter() - start
    if best is None:
        return SolveOutcome(
            method="minlp+g",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=runtime,
            lower_bound=lower_bound if exhausted else math.nan,
            nodes_explored=packer.nodes,
            details={
                "reason": (
                    "no feasible allocation found within the node budget"
                    if exhausted
                    else "no allocation of the candidate totals fits the platform"
                )
            },
            counters=counters,
        )

    with span("finalize"):
        objective = best.objective
        lower_bound = min(lower_bound, objective)
        gap = max(0.0, objective - lower_bound) / max(1e-12, abs(objective))
        outcome = SolveOutcome(
            method="minlp+g",
            status=SolveStatus.FEASIBLE if exhausted else SolveStatus.OPTIMAL,
            solution=best,
            runtime_seconds=time.perf_counter() - start,
            lower_bound=lower_bound,
            nodes_explored=packer.nodes,
            details={
                "gap": gap,
                "seeded": seeded,
                "heuristic_objective": (
                    heuristic_outcome.objective if heuristic_outcome else math.nan
                ),
            },
            counters=counters,
        )
    return outcome
