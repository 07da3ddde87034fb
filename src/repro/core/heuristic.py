"""The GP+A heuristic: GP relaxation + discretisation + greedy allocation.

This is the paper's main contribution (Section 3.2): a two-step heuristic
whose results track the exact MINLP solutions at a small fraction of the
runtime.  The three stages are implemented in :mod:`repro.core.gp_step`,
:mod:`repro.core.discretize` and :mod:`repro.core.allocator`; this module
chains them and packages the result.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import get_args

from ..gp.errors import InfeasibleError
from ..memo import Memo, value_key
from ..obs.trace import span
from .allocator import AllocatorResult, AllocatorSettings, CriticalityRule, GreedyAllocator
from .discretize import DiscretizationError, discretize_counts
from .gp_step import solve_gp_step
from .problem import AllocationProblem
from .solution import AllocationSolution, SolveOutcome, SolveStatus


@dataclass(frozen=True)
class HeuristicSettings:
    """Configuration of the GP+A heuristic: the allocator's parameters.

    The GP step and the discretisation each have one exact solver, so
    nothing about them is configurable.  Every field is type- and
    range-checked on construction, so a bad wire document fails to decode
    with an error naming the field.
    """

    t_percent: float = 0.0
    delta_percent: float = 1.0
    criticality: str = "ii-impact"

    def __post_init__(self) -> None:
        for name, positive in (("t_percent", False), ("delta_percent", True)):
            value = getattr(self, name)
            valid = (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (value > 0 if positive else value >= 0)
            )
            if not valid:
                bound = "> 0" if positive else ">= 0"
                raise ValueError(f"{name} must be a finite number {bound}, got {value!r}")
        rules = get_args(CriticalityRule)
        if not isinstance(self.criticality, str) or self.criticality not in rules:
            raise ValueError(f"criticality must be one of {rules}, got {self.criticality!r}")

    def allocator_settings(self) -> AllocatorSettings:
        return AllocatorSettings(
            t_percent=self.t_percent,
            delta_percent=self.delta_percent,
            criticality=self.criticality,  # type: ignore[arg-type]
        )


# --------------------------------------------------------------------------- #
# Cross-call memo of the allocation stage: the exact solvers seed from the
# same GP+A run the gp+a table row measures, and the placement is a pure
# function of (pipeline, platform, allocator settings, integer totals) --
# objective weights never enter Algorithm 1 -- so every weight variant of a
# problem shares the entry.  The GP and discretisation stages carry their own
# memos (:mod:`repro.core.gp_step`, :mod:`repro.core.discretize`).
# --------------------------------------------------------------------------- #
_memo: "Memo[tuple, AllocatorResult]" = Memo(512)


def allocation_cache_clear() -> None:
    """Empty the cross-call memo (used by tests and benchmarks)."""
    _memo.clear()


def _allocate_memoized(
    problem: AllocationProblem,
    settings: AllocatorSettings,
    totals: "dict[str, int]",
) -> AllocatorResult:
    key = value_key(problem.pipeline, problem.platform, settings, tuple(sorted(totals.items())))
    if key is not None:
        cached = _memo.get(key)
        if cached is not None:
            return cached
    result = GreedyAllocator(problem, settings).allocate(totals)
    if key is not None:
        _memo.put(key, result)
    return result


def solve_gp_a(
    problem: AllocationProblem, settings: HeuristicSettings = HeuristicSettings()
) -> SolveOutcome:
    """Run the full GP+A heuristic on an allocation problem.

    Returns a :class:`SolveOutcome`; ``status`` is ``INFEASIBLE`` when either
    the relaxed GP is infeasible (the platform cannot host one CU per kernel)
    or the allocator cannot place the discretised CUs within ``R + T``.
    """
    start = time.perf_counter()
    details: dict[str, object] = {}

    try:
        gp_result = solve_gp_step(problem)
    except InfeasibleError as error:
        return SolveOutcome(
            method="gp+a",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            details={"reason": f"relaxed GP infeasible: {error}"},
        )
    details["ii_hat"] = gp_result.ii_hat
    details["counts_hat"] = dict(gp_result.counts_hat)

    try:
        with span("discretize"):
            discretization = discretize_counts(problem)
    except DiscretizationError as error:
        return SolveOutcome(
            method="gp+a",
            status=SolveStatus.INFEASIBLE,
            solution=None,
            runtime_seconds=time.perf_counter() - start,
            lower_bound=problem.weights.alpha * gp_result.ii_hat,
            details={"reason": f"discretisation failed: {error}", **details},
        )
    details["integer_counts"] = dict(discretization.counts)
    details["ii_after_discretization"] = discretization.ii

    with span("allocate"):
        allocation = _allocate_memoized(
            problem, settings.allocator_settings(), dict(discretization.counts)
        )
    details["allocator_iterations"] = allocation.iterations
    details["constraint_relaxation"] = allocation.constraint_relaxation

    if not allocation.success:
        # Not all CUs could be placed within R + T.  The heuristic keeps the
        # partial allocation (the dropped CUs simply degrade the II); this is
        # exactly the regime where GP+A trails MINLP in Figs. 3-5.  Only when
        # a kernel ends up with zero CUs is the problem reported infeasible.
        details["unallocated"] = dict(allocation.unallocated)
        placed_all_kernels = all(
            sum(allocation.counts[name]) >= 1 for name in problem.kernel_names
        )
        if not placed_all_kernels:
            return SolveOutcome(
                method="gp+a",
                status=SolveStatus.INFEASIBLE,
                solution=None,
                runtime_seconds=time.perf_counter() - start,
                lower_bound=problem.weights.alpha * gp_result.ii_hat,
                details={"reason": "a kernel could not receive any CU", **details},
            )

    with span("finalize"):
        solution = AllocationSolution(problem=problem, counts=dict(allocation.counts))
        runtime = time.perf_counter() - start
        outcome = SolveOutcome(
            method="gp+a",
            status=SolveStatus.FEASIBLE,
            solution=solution,
            runtime_seconds=runtime,
            lower_bound=problem.weights.alpha * gp_result.ii_hat,
            details=details,
        )
    return outcome
