"""Exact solvers for the allocation MINLP (the paper's reference methods).

The paper's MINLP and MINLP+G are one model (eqs. 4-10) with ``beta = 0``
and ``beta > 0``, and both are solved by one candidate-II decomposition.
The II of any allocation is ``max_k WCET_k / N_k``, so every candidate II
``c >= ii_hat`` fixes the least CU totals ``N(c)`` that reach it; the
distinct ``N(c)`` vectors are the candidates (:func:`_weighted_candidates`).
The GP+A allocation is the starting incumbent, and a candidate the node
budget leaves undecided makes the answer ``feasible``, bounded by the
candidates no search has ruled out.  Only the step that decides one
candidate depends on ``beta``:

* :func:`solve_exact_min_ii` -- ``beta = 0`` ("MINLP" in the figures).
  Packing feasibility is monotone in II, so the search starts at the
  highest candidate whose II is at most the incumbent's, packs candidates
  downwards with the vector bin packer and stops at the first that does
  not pack: proven infeasible means the last packing is optimal.

* :func:`solve_exact_weighted` -- ``beta > 0`` ("MINLP+G").  With the
  totals fixed, the spreading depends only on how each total splits over
  the FPGAs, so each candidate is a packing of allowed splits under a
  spreading cap (:mod:`repro.minlp.split_search`).  Candidates are visited
  in order of a closed-form bound.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..minlp.binpacking import PackingItemType, VectorBinPacker, shared_packing_memo
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

    ``packer_max_nodes`` bounds the ``minlp`` bin packer per probe (one
    candidate) and the ``minlp+g`` split search over the whole solve;
    ``seed_with_heuristic`` starts both from the GP+A incumbent and
    ``gap_tolerance`` steers ``minlp+g``.  No solver reads ``max_nodes``,
    ``time_limit_seconds`` or ``symmetry_breaking``: they stay fields so
    that request fingerprints do not move.

    Every field is type- and range-checked on construction, so a bad wire
    document fails to decode with an error naming the field; an integral
    float (``3.0``) is taken as its int, which leaves the fingerprint as is.
    """

    max_nodes: int = 2_000
    time_limit_seconds: float = 120.0
    gap_tolerance: float = 1e-6
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
        for name in ("symmetry_breaking", "seed_with_heuristic"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")


# --------------------------------------------------------------------------- #
# Candidates
# --------------------------------------------------------------------------- #
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


@dataclass(frozen=True)
class _Candidate:
    """One candidate of the search: least CU totals for a candidate II, the
    II they reach and the bound no allocation with them beats."""

    bound: float
    ii: float
    totals: tuple[int, ...]


def _weighted_candidates(
    problem: AllocationProblem, ii_hat: float, beta: float
) -> list[_Candidate]:
    """Every distinct least-totals vector ``N(c)`` of a candidate II
    ``c >= ii_hat`` that some platform can hold, in ascending order of its
    bound under spreading weight ``beta``.

    An allocation with II ``c`` has totals ``>= N(c)``, and dropping the
    surplus CUs keeps it feasible and lowers its spreading, so some optimum
    uses exactly ``N(c)`` for its own II.  The IIs of distinct vectors are
    distinct, so at ``beta = 0`` the order is ascending II.  With the
    totals fixed, the least spreading ``phi_min(N_k)`` of kernel ``k`` is
    its most concentrated split: ``n / (1 + n)`` is concave, so the minimum
    over the box of parts lies at a vertex, as many parts of the largest
    FPGA's cap as possible plus the remainder.  That gives the bound
    ``alpha * II(N) + beta * max_k phi_min(N_k)``.
    """
    arrays = problem.arrays()
    values = np.asarray(candidate_ii_values(problem, floor=ii_hat - 1e-9))
    totals = np.maximum(1, np.ceil(arrays.wcet[:, None] / values[None, :] - 1e-9))
    distinct = np.ones(totals.shape[1], dtype=bool)
    distinct[1:] = (totals[:, 1:] != totals[:, :-1]).any(axis=0)
    totals = totals[:, distinct]
    # phi_min of every kernel and candidate at once (inf: more parts than
    # FPGAs, or a kernel no FPGA holds one CU of -- no allocation exists).
    part_caps = np.array([max(caps) for caps in arrays.fpga_max_cus], dtype=np.float64)[:, None]
    divisor = np.maximum(part_caps, 1.0)
    full, rest = np.floor_divide(totals, divisor), np.remainder(totals, divisor)
    spreading = full * (divisor / (1.0 + divisor)) + rest / (1.0 + rest)
    spreading[(full + (rest > 0) > problem.num_fpgas) | (part_caps < 1)] = math.inf
    spreading = spreading.max(axis=0)
    ii = (arrays.wcet[:, None] / totals).max(axis=0)
    holdable = spreading < math.inf
    bound = problem.weights.alpha * ii + beta * np.where(holdable, spreading, 0.0)
    candidates = [
        _Candidate(value, rate, tuple(column))
        for value, rate, column, keep in zip(
            bound.tolist(), ii.tolist(), totals.astype(np.int64).T.tolist(), holdable.tolist()
        )
        if keep
    ]
    candidates.sort(key=lambda candidate: candidate.bound)
    return candidates


#: What a per-candidate step leaves: the best allocation (or ``None``), a
#: lower bound on every allocation it did not rule out (``inf``: none
#: left), whether the node budget ran out, the nodes it expanded and its
#: work counters.
_StepResult = tuple["AllocationSolution | None", float, bool, int, "dict[str, int]"]


# --------------------------------------------------------------------------- #
# beta = 0: walk down the candidates with the bin packer ("MINLP")
# --------------------------------------------------------------------------- #
def _packer_for(problem: AllocationProblem, settings: ExactSettings) -> VectorBinPacker:
    """Packer over the problem's capacity dimensions, with a shared memo.

    The memo is shared between every packer with an identical configuration
    (bin count, capacities, budget), so the feasibility of a CU count vector
    is established once across repeated solves and design-space sweep
    points.  On a heterogeneous platform the packer receives one capacity
    row per FPGA (class-major order) instead of the shared capacity vector.
    """
    dimensions = problem.capacity_dimensions()
    num_fpgas = problem.num_fpgas
    if problem.platform.is_homogeneous:
        packer = VectorBinPacker(
            num_bins=num_fpgas,
            capacity=[dimension.capacity for dimension in dimensions],
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
            max_backtrack_nodes=settings.packer_max_nodes,
        )
    packer.memo = shared_packing_memo(packer.config_key())
    return packer


def _pack_items(problem: AllocationProblem, totals: Sequence[int]) -> list[PackingItemType]:
    dimensions = problem.capacity_dimensions()
    return [
        PackingItemType(
            name=name,
            count=int(total),
            size=tuple(dimension.weights.get(name, 0.0) for dimension in dimensions),
        )
        for name, total in zip(problem.kernel_names, totals)
    ]


def _walk_down(
    problem: AllocationProblem,
    settings: ExactSettings,
    candidates: Sequence[_Candidate],
    seed: AllocationSolution | None,
) -> _StepResult:
    """Pack the candidates from the incumbent's II downwards.

    The walk starts at the highest candidate whose II is at most the
    incumbent's (ties included: the packer's allocation replaces the
    incumbent's at the same II) and stops at the first candidate that does
    not pack.  A packing of ``N(c)`` proves every candidate above it
    feasible, and a proven failure every candidate below it infeasible, so
    a proven failure certifies the last packing.  A failure on an exhausted
    budget leaves every candidate below it open.
    """
    packer = _packer_for(problem, settings)
    top = len(candidates)
    if seed is not None:
        limit = seed.initiation_interval * (1.0 + 1e-12)
        top = sum(1 for candidate in candidates if candidate.ii <= limit)
    best = seed
    lower_bound = candidates[0].bound if candidates else math.inf
    exhausted = False
    visited = search_nodes = completion_nodes = exact_searches = 0
    with span("pack_search"):
        for candidate in reversed(candidates[:top]):
            packing = packer.pack(_pack_items(problem, candidate.totals))
            visited += 1
            search_nodes += packer.last_nodes
            completion_nodes += packer.last_completion_nodes
            if packer.last_nodes or packer.last_completion_nodes:
                exact_searches += 1
            if not packing.feasible:
                if not packing.exact:
                    exhausted, lower_bound = True, candidates[0].bound
                break
            best = AllocationSolution(
                problem=problem,
                counts={name: tuple(packing.assignment[name]) for name in problem.kernel_names},
            )
            lower_bound = candidate.bound
    counters = {
        "packs": visited,
        "packer_search_nodes": search_nodes,
        "packer_completion_nodes": completion_nodes,
        "packer_exact_searches": exact_searches,
        "packing_memo_hits": packer.memo_hits,
        "packing_memo_misses": packer.memo_misses,
    }
    return best, lower_bound, exhausted, visited, counters


# --------------------------------------------------------------------------- #
# beta > 0: greedy pass and split search in bound order ("MINLP+G")
# --------------------------------------------------------------------------- #
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


def _split_search(
    problem: AllocationProblem,
    settings: ExactSettings,
    candidates: Sequence[_Candidate],
    seed: AllocationSolution | None,
) -> _StepResult:
    """Visit the candidates in bound order until a bound reaches the
    incumbent (less ``gap_tolerance``).

    One greedy split packing per candidate improves the incumbent first;
    then the complete split search tries each remaining candidate under the
    spreading cap the incumbent leaves it, lowering the cap below every
    packing it finds.
    """
    alpha, beta = problem.weights.alpha, problem.weights.beta
    best = seed
    incumbent = math.inf if seed is None else seed.objective

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
    counters = {"candidates_visited": visited, "split_search_nodes": packer.nodes}
    return best, lower_bound, exhausted, packer.nodes, counters


# --------------------------------------------------------------------------- #
# The one skeleton
# --------------------------------------------------------------------------- #
def _solve_decomposed(
    problem: AllocationProblem, settings: ExactSettings, beta: float
) -> SolveOutcome:
    """Candidates, GP+A seed, the per-candidate step ``beta`` picks, one
    outcome shape.

    When the step's node budget runs out the outcome is ``feasible``,
    bounded by the candidates it left undecided.
    """
    start = time.perf_counter()
    method, step = ("minlp", _walk_down) if beta == 0 else ("minlp+g", _split_search)
    with span("candidates"):
        try:
            ii_hat = solve_gp_step(problem).ii_hat
        except Exception as error:  # infeasible relaxation
            return SolveOutcome(
                method=method,
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime_seconds=time.perf_counter() - start,
                details={"reason": f"relaxed problem infeasible: {error}"},
            )
        candidates = _weighted_candidates(problem, ii_hat, beta)

    heuristic: SolveOutcome | None = None
    if settings.seed_with_heuristic:
        with span("heuristic_seed"):
            heuristic = solve_gp_a(problem, HeuristicSettings())
    seed = heuristic.solution if heuristic is not None and heuristic.succeeded else None

    best, lower_bound, exhausted, nodes, step_counters = step(
        problem, settings, candidates, seed
    )
    counters = {"candidates_considered": len(candidates), **step_counters}
    if best is None:
        return SolveOutcome(
            method=method,
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            lower_bound=lower_bound if exhausted else math.nan,
            nodes_explored=nodes,
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
            method=method,
            status=SolveStatus.FEASIBLE if exhausted else SolveStatus.OPTIMAL,
            solution=best,
            runtime_seconds=time.perf_counter() - start,
            lower_bound=lower_bound,
            nodes_explored=nodes,
            details={
                "gap": gap,
                "seeded": seed is not None,
                "heuristic_objective": heuristic.objective if heuristic else math.nan,
            },
            counters=counters,
        )
    return outcome


def solve_exact_min_ii(
    problem: AllocationProblem, settings: ExactSettings = ExactSettings()
) -> SolveOutcome:
    """Exact minimum-II allocation (the ``beta = 0`` "MINLP" reference).

    The problem's own ``beta`` is ignored by the search: it minimises the
    II, and ``packer_max_nodes`` bounds each candidate's packing.
    """
    return _solve_decomposed(problem, settings, 0.0)


def solve_exact_weighted(
    problem: AllocationProblem,
    settings: ExactSettings = ExactSettings(),
) -> SolveOutcome:
    """Exact allocation for the weighted II + spreading objective.

    A problem with ``beta = 0`` is the minimum-II problem.  Otherwise
    ``packer_max_nodes`` bounds the split search over the whole solve.
    """
    return _solve_decomposed(problem, settings, problem.weights.beta)
