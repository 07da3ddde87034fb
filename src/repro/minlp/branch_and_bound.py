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

Two performance features are built into the engine itself:

* **Relaxation caching** -- node relaxations are memoized in a
  :class:`~repro.memo.Memo` keyed on the node's box (:func:`box_key`); a
  cache can be shared across solver instances, e.g. across the points of a
  design-space sweep, so identical subproblems are never re-solved.  Each
  run counts its own hits and misses and reports them on :class:`BBResult`.
* **Warm-starting** -- when the relaxation solver accepts a second argument,
  each child node receives its parent's :class:`RelaxationResult`, whose
  metadata (the allocation relaxation's feasibility point) can spare the
  child an LP.
"""

from __future__ import annotations

import heapq
import inspect
import itertools
import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..memo import Memo
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


def box_key(bounds: VariableBounds) -> tuple:
    """Relaxation-cache key of a node: ``(names, lower bytes, upper bytes)``.
    Boxes over the same variables in the same order share a key exactly
    when equal."""
    return (bounds.names, bounds.lower.tobytes(), bounds.upper.tobytes())


#: Entries of one relaxation cache: a :class:`~repro.memo.Memo` of node
#: relaxations keyed by :func:`box_key`.  Within one tree the boxes of
#: distinct nodes are disjoint, so the payoff comes from *sharing* a cache
#: across solver runs over one problem; node bounds alone are not a safe
#: key across different problems.
RELAXATION_CACHE_ENTRIES = 8192

#: Relaxation caches shared across solver runs, keyed by a caller-supplied
#: value-key identifying the underlying problem.
_shared_caches: "Memo[tuple, Memo]" = Memo(64)


def shared_relaxation_cache(key: tuple) -> Memo:
    """Relaxation cache shared by every solver run over the same problem.

    Node relaxations depend only on the problem data and the node's box
    bounds, so separate branch-and-bound runs over one problem (repeated
    discretisations, sweep re-solves) can reuse each other's node bounds.
    The caller's ``key`` must identify the problem by value.
    """
    return _shared_caches.get_or_create(key, lambda: Memo(RELAXATION_CACHE_ENTRIES))


def shared_relaxation_caches_clear() -> None:
    """Drop every shared relaxation cache (used by tests and benchmarks)."""
    _shared_caches.clear()


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
    relaxation_cache_hits: int = 0
    relaxation_cache_misses: int = 0
    #: Instrumentation deltas from the relaxation solver's counters (LP
    #: solves, probes, feasibility memo hits, ...) accumulated over this run.
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


#: A relaxation solver maps node bounds to a bound + fractional solution; it
#: may optionally accept the parent node's relaxation as a second positional
#: argument to warm-start (``None`` at the root).  Points are arrays aligned
#: with the bounds' ``names``: integer candidates are int64, relaxation
#: points float.
RelaxationSolver = Callable[..., RelaxationResult]
IncumbentEvaluator = Callable[[np.ndarray], float | None]
RoundingHeuristic = Callable[[np.ndarray, VariableBounds], Iterable[np.ndarray]]


def _accepts_parent(solver: RelaxationSolver) -> bool:
    """Whether a relaxation solver takes a (bounds, parent) pair."""
    try:
        parameters = inspect.signature(solver).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/C callables
        return False
    positional = [
        parameter
        for parameter in parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    ]
    if any(
        parameter.kind is inspect.Parameter.VAR_POSITIONAL for parameter in parameters.values()
    ):
        return True
    return len(positional) >= 2


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
        relaxation_cache: "Memo[tuple, RelaxationResult] | None" = None,
        counters_provider: "Callable[[], Mapping[str, int]] | None" = None,
    ):
        self._relax = relaxation_solver
        self._relax_takes_parent = _accepts_parent(relaxation_solver)
        self._evaluate = incumbent_evaluator
        self._round = rounding_heuristic
        self._settings = settings
        self._cache = relaxation_cache
        #: Optional callable returning monotone instrumentation counters of
        #: the relaxation solver; the per-run delta lands on ``BBResult``.
        self._counters_provider = counters_provider

    def _solve_relaxation(
        self,
        bounds: VariableBounds,
        parent: RelaxationResult | None,
        cache_counts: list[int],
    ) -> RelaxationResult:
        """Solve one node's relaxation through the cache and warm start;
        ``cache_counts`` is the run's ``[hits, misses]``.  They are counted
        here, not read off the cache, because a shared cache also serves
        concurrent runs."""
        if self._cache is not None:
            key = box_key(bounds)
            cached = self._cache.get(key)
            if cached is not None:
                cache_counts[0] += 1
                return cached
            cache_counts[1] += 1
        if self._relax_takes_parent:
            result = self._relax(bounds, parent)
        else:
            result = self._relax(bounds)
        if self._cache is not None:
            self._cache.put(key, result)
        return result

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
        cache_counts = [0, 0]
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

        root_relaxation = self._solve_relaxation(initial_bounds, None, cache_counts)
        if not root_relaxation.feasible:
            if best_solution.size:
                # The caller's incumbent is feasible even though the root
                # relaxation is not (should not happen for exact relaxations).
                hits, misses = cache_counts
                return BBResult(
                    status=BBStatus.FEASIBLE,
                    objective=best_objective,
                    solution=best_solution,
                    lower_bound=-math.inf,
                    nodes_explored=0,
                    runtime_seconds=time.perf_counter() - start,
                    relaxation_cache_hits=hits,
                    relaxation_cache_misses=misses,
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
                    relaxation = self._solve_relaxation(
                        child_bounds, node.relaxation, cache_counts
                    )
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

        hits, misses = cache_counts
        if not math.isfinite(best_objective):
            status = BBStatus.NO_SOLUTION if (heap or nodes_explored) else BBStatus.INFEASIBLE
            return BBResult(
                status=status,
                objective=math.inf,
                solution=_NO_SOLUTION,
                lower_bound=global_lower,
                nodes_explored=nodes_explored,
                runtime_seconds=runtime,
                relaxation_cache_hits=hits,
                relaxation_cache_misses=misses,
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
            relaxation_cache_hits=hits,
            relaxation_cache_misses=misses,
            counters=counter_deltas(),
        )
