"""Method comparison harness (the GP+A / MINLP / MINLP+G curves of Figs. 3-5).

Comparisons execute through :class:`~repro.explore.executor.SweepExecutor`;
one task per (constraint, method) pair, with the constrained problem built
once per constraint and shared by every method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.objective import ObjectiveWeights
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome
from .executor import DEFAULT_EXECUTOR, SolveTask, SweepExecutor, run_solve_task


@dataclass(frozen=True)
class ComparisonPoint:
    """All methods' outcomes at one resource constraint."""

    resource_constraint: float
    outcomes: Mapping[str, SolveOutcome]

    def initiation_interval(self, method: str) -> float:
        return self.outcomes[method].initiation_interval

    def average_utilization(self, method: str) -> float:
        outcome = self.outcomes[method]
        if outcome.solution is None:
            return float("nan")
        return outcome.solution.average_utilization

    def runtime(self, method: str) -> float:
        return self.outcomes[method].runtime_seconds


@dataclass(frozen=True)
class ComparisonSettings:
    """Settings shared by a full method comparison."""

    methods: tuple[str, ...] = ("gp+a", "minlp", "minlp+g")
    heuristic: HeuristicSettings = HeuristicSettings()
    exact: ExactSettings = ExactSettings()
    #: Weights used for the MINLP+G (and GP+A spreading report) runs; when
    #: None the problem's own weights are used.
    weights: ObjectiveWeights | None = None


def _comparison_tasks(
    problem: AllocationProblem,
    constraints: Sequence[float],
    settings: ComparisonSettings,
) -> list[SolveTask]:
    tasks: list[SolveTask] = []
    for constraint in constraints:
        constrained = problem.with_resource_constraint(constraint)
        if settings.weights is not None:
            constrained = constrained.with_weights(settings.weights)
        for method in settings.methods:
            tasks.append(
                SolveTask(
                    problem=constrained,
                    method=method,
                    heuristic_settings=settings.heuristic,
                    exact_settings=settings.exact,
                    tag=(constraint, method),
                )
            )
    return tasks


def compare_methods_over(
    problem: AllocationProblem,
    constraints: Sequence[float],
    settings: ComparisonSettings = ComparisonSettings(),
    executor: SweepExecutor | None = None,
) -> list[ComparisonPoint]:
    """Run the full comparison over a resource-constraint grid (Figs. 3-5).

    A constraint listed twice is solved once; each listed constraint still
    gets its own point.
    """
    executor = executor or DEFAULT_EXECUTOR
    tasks = _comparison_tasks(problem, list(dict.fromkeys(constraints)), settings)
    outcomes = executor.map(run_solve_task, tasks)
    by_constraint: dict[float, dict[str, SolveOutcome]] = {}
    for task, outcome in zip(tasks, outcomes):
        constraint, method = task.tag
        by_constraint.setdefault(constraint, {})[method] = outcome
    return [
        ComparisonPoint(resource_constraint=constraint, outcomes=by_constraint[constraint])
        for constraint in constraints
    ]


def speedup_summary(points: Sequence[ComparisonPoint], baseline: str, reference: str) -> dict[str, float]:
    """Aggregate runtime speedup of ``baseline`` over ``reference``.

    Returns min / geometric-mean / max speedups over the feasible points.
    The paper reports GP+A being 100x-1000x faster than MINLP(+G).
    """
    ratios: list[float] = []
    for point in points:
        base = point.outcomes.get(baseline)
        ref = point.outcomes.get(reference)
        if base is None or ref is None:
            continue
        if not (base.succeeded and ref.succeeded):
            continue
        if base.runtime_seconds <= 0:
            continue
        ratios.append(ref.runtime_seconds / base.runtime_seconds)
    if not ratios:
        return {"min": float("nan"), "geomean": float("nan"), "max": float("nan")}
    product = 1.0
    for ratio in ratios:
        product *= ratio
    return {
        "min": min(ratios),
        "geomean": product ** (1.0 / len(ratios)),
        "max": max(ratios),
    }
