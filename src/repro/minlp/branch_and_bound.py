"""Generic best-first branch-and-bound engine for convexifiable MINLPs.

The engine is deliberately problem-agnostic: it works with three callbacks,

* a *relaxation solver* mapping integer box bounds to a lower bound and a
  (possibly fractional) solution,
* an *incumbent evaluator* mapping an integer point to its true objective
  (or ``None`` when the point is infeasible for the original problem),
* an optional *rounding heuristic* that proposes integer points near a
  fractional relaxation solution to warm up the incumbent.

Everything is indexed by *position*, never by name.  A tree's variables are
the ``names`` tuple of its root :class:`~repro.minlp.bounds.VariableBounds`,
shared by every node; a node's box is two int64 arrays aligned with it, a
relaxation returns its point as a float array (:attr:`RelaxationResult.
values`), and candidates, rounding proposals and the incumbent are int64
arrays in the same order.  The integrality test and the most-fractional
branching rule (ties go to the first variable) are array operations, so no
per-node work formats, parses or looks up a variable name.

The allocation-specific relaxations (the LP + initiation-interval search of
:mod:`repro.core.exact`) plug into this engine; the paper's reference tool
(Couenne) follows the same spatial branch-and-bound architecture.

Each node's relaxation is solved exactly once and nothing is kept once a
search returns: no two nodes of one tree have the same box, so a cache
would never hit within a search, and a result never depends on an earlier
search.  The relaxation solver is warm-started instead: each child node
receives its parent's :class:`RelaxationResult`, whose metadata (the
allocation relaxation's feasibility point) can spare the child an LP.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..obs.trace import span
from .bounds import VariableBounds
from .errors import InfeasibleProblemError

#: Tolerance under which a relaxation value is considered integral.
INTEGRALITY_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class RelaxationResult:
    """Outcome of solving one node's continuous relaxation.

    ``values`` is the relaxation's (fractional) point, aligned with the
    node's ``names``.  ``metadata`` carries solver-specific warm-start hints
    (e.g. the allocation relaxation's feasibility point); the engine passes
    the parent's result to the relaxation solver, which may read them back.
    """

    feasible: bool
    objective: float
    values: np.ndarray = field(default_factory=lambda: np.empty(0))
    metadata: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def infeasible(cls) -> "RelaxationResult":
        return cls(feasible=False, objective=math.inf)


class BBStatus(Enum):
    """Termination status of a branch-and-bound run."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped at a limit with an incumbent but a gap
    INFEASIBLE = "infeasible"
    NO_SOLUTION = "no-solution"  # stopped at a limit without any incumbent


def shared_relaxation_caches_clear() -> None:
    """Do nothing: no relaxation outlives its search.  Kept so callers that
    clear every memo before a cold measurement still import it."""


#: The incumbent of a search that found none.
_NO_SOLUTION = np.empty(0, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class BBResult:
    """Result of a branch-and-bound run; ``solution`` is aligned with the
    root bounds' ``names`` (empty when there is none)."""

    status: BBStatus
    objective: float
    solution: np.ndarray
    lower_bound: float
    nodes_explored: int
    runtime_seconds: float
    #: Instrumentation deltas from the relaxation solver's counters (LP
    #: solves, probes, node solves, ...) accumulated over this run.
    counters: Mapping[str, int] = field(default_factory=dict)

    @property
    def gap(self) -> float:
        """Relative optimality gap (0 when proven optimal)."""
        if not math.isfinite(self.objective) or not math.isfinite(self.lower_bound):
            return math.inf
        if abs(self.objective) < 1e-12:
            return abs(self.objective - self.lower_bound)
        return max(0.0, (self.objective - self.lower_bound) / abs(self.objective))

    @property
    def has_solution(self) -> bool:
        return self.solution.size > 0 and math.isfinite(self.objective)


@dataclass(frozen=True)
class BBSettings:
    """Limits and tolerances of the search."""

    max_nodes: int = 20_000
    time_limit_seconds: float = 120.0
    gap_tolerance: float = 1e-6
    integrality_tolerance: float = INTEGRALITY_TOLERANCE


#: A relaxation solver maps node bounds and the parent node's relaxation
#: (``None`` at the root, for warm starts) to a bound + fractional solution.
#: Points are arrays aligned with the bounds' ``names``: integer candidates
#: are int64, relaxation points float.
RelaxationSolver = Callable[[VariableBounds, RelaxationResult | None], RelaxationResult]
IncumbentEvaluator = Callable[[np.ndarray], float | None]
RoundingHeuristic = Callable[[np.ndarray, VariableBounds], Iterable[np.ndarray]]


@dataclass(order=True)
class _Node:
    """Priority-queue entry; ordered by relaxation bound (best-first)."""

    bound: float
    sequence: int
    bounds: VariableBounds = field(compare=False)
    relaxation: RelaxationResult = field(compare=False)
    depth: int = field(compare=False, default=0)


class BranchAndBoundSolver:
    """Best-first branch-and-bound over integer box bounds."""

    def __init__(
        self,
        relaxation_solver: RelaxationSolver,
        incumbent_evaluator: IncumbentEvaluator,
        rounding_heuristic: RoundingHeuristic | None = None,
        settings: BBSettings = BBSettings(),
        counters_provider: "Callable[[], Mapping[str, int]] | None" = None,
    ):
        self._relax = relaxation_solver
        self._evaluate = incumbent_evaluator
        self._round = rounding_heuristic
        self._settings = settings
        #: Optional callable returning monotone instrumentation counters of
        #: the relaxation solver; the per-run delta lands on ``BBResult``.
        self._counters_provider = counters_provider

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(
        self,
        initial_bounds: VariableBounds,
        initial_incumbent: "np.ndarray | None" = None,
    ) -> BBResult:
        """Run the search starting from ``initial_bounds``.

        ``initial_incumbent`` (aligned with ``initial_bounds.names``) may
        seed the search with a known feasible point (e.g. the GP+A heuristic
        solution), which dramatically improves pruning on symmetric
        instances.
        """
        start = time.perf_counter()
        settings = self._settings
        counter = itertools.count()
        counters_before = (
            dict(self._counters_provider()) if self._counters_provider is not None else {}
        )

        def counter_deltas() -> dict[str, int]:
            if self._counters_provider is None:
                return {}
            return {
                name: value - counters_before.get(name, 0)
                for name, value in self._counters_provider().items()
            }

        best_objective = math.inf
        best_solution = _NO_SOLUTION
        if initial_incumbent is not None:
            seeded = np.round(np.asarray(initial_incumbent)).astype(np.int64)
            value = self._evaluate(seeded)
            if value is not None:
                best_objective = value
                best_solution = seeded

        root_relaxation = self._relax(initial_bounds, None)
        if not root_relaxation.feasible:
            if best_solution.size:
                # The caller's incumbent is feasible even though the root
                # relaxation is not (should not happen for exact relaxations).
                return BBResult(
                    status=BBStatus.FEASIBLE,
                    objective=best_objective,
                    solution=best_solution,
                    lower_bound=-math.inf,
                    nodes_explored=0,
                    runtime_seconds=time.perf_counter() - start,
                    counters=counter_deltas(),
                )
            raise InfeasibleProblemError("root relaxation is infeasible")

        heap: list[_Node] = [
            _Node(
                bound=root_relaxation.objective,
                sequence=next(counter),
                bounds=initial_bounds,
                relaxation=root_relaxation,
            )
        ]
        nodes_explored = 0
        global_lower = root_relaxation.objective

        while heap:
            if nodes_explored >= settings.max_nodes:
                break
            if time.perf_counter() - start > settings.time_limit_seconds:
                break

            with span("bb_node"):
                node = heapq.heappop(heap)
                global_lower = node.bound if not heap else min(node.bound, heap[0].bound)
                if node.bound >= best_objective - settings.gap_tolerance * max(1.0, abs(best_objective)):
                    # Everything remaining is at least as bad as the incumbent.
                    global_lower = max(global_lower, node.bound)
                    break
                nodes_explored += 1

                values = node.relaxation.values
                nearest = np.round(values)
                fractional = np.abs(values - nearest) > settings.integrality_tolerance
                if not fractional.any():
                    # Integral relaxation: candidate incumbent.
                    candidate = nearest.astype(np.int64)
                    value = self._evaluate(candidate)
                    if value is not None and value < best_objective:
                        best_objective = value
                        best_solution = candidate
                    continue

                # Try rounding heuristics to tighten the incumbent early.
                if self._round is not None:
                    for proposal in self._round(values, node.bounds):
                        candidate = np.asarray(proposal, dtype=np.int64)
                        value = self._evaluate(candidate)
                        if value is not None and value < best_objective:
                            best_objective = value
                            best_solution = candidate

                # Most-fractional branching: the first variable closest to .5.
                distance = np.where(fractional, np.abs(values - np.floor(values) - 0.5), np.inf)
                index = int(np.argmin(distance))
                floor_value = math.floor(float(values[index]))
                children = []
                if floor_value >= node.bounds.lower[index]:
                    children.append(node.bounds.with_upper(index, floor_value))
                if floor_value + 1 <= node.bounds.upper[index]:
                    children.append(node.bounds.with_lower(index, floor_value + 1))

                for child_bounds in children:
                    relaxation = self._relax(child_bounds, node.relaxation)
                    if not relaxation.feasible:
                        continue
                    if relaxation.objective >= best_objective - settings.gap_tolerance * max(
                        1.0, abs(best_objective)
                    ):
                        continue
                    heapq.heappush(
                        heap,
                        _Node(
                            bound=relaxation.objective,
                            sequence=next(counter),
                            bounds=child_bounds,
                            relaxation=relaxation,
                            depth=node.depth + 1,
                        ),
                    )

        runtime = time.perf_counter() - start
        if heap:
            global_lower = min(global_lower, heap[0].bound)
        else:
            # Search exhausted: the incumbent (if any) is optimal.
            global_lower = best_objective if math.isfinite(best_objective) else global_lower

        if not math.isfinite(best_objective):
            status = BBStatus.NO_SOLUTION if (heap or nodes_explored) else BBStatus.INFEASIBLE
            return BBResult(
                status=status,
                objective=math.inf,
                solution=_NO_SOLUTION,
                lower_bound=global_lower,
                nodes_explored=nodes_explored,
                runtime_seconds=runtime,
                counters=counter_deltas(),
            )

        gap = (best_objective - global_lower) / max(1e-12, abs(best_objective))
        status = BBStatus.OPTIMAL if gap <= max(settings.gap_tolerance, 1e-9) * 10 else BBStatus.FEASIBLE
        return BBResult(
            status=status,
            objective=best_objective,
            solution=best_solution,
            lower_bound=min(global_lower, best_objective),
            nodes_explored=nodes_explored,
            runtime_seconds=runtime,
            counters=counter_deltas(),
        )
