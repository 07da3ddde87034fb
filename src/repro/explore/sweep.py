"""Design-space exploration sweeps.

The paper's evaluation is a family of sweeps.  Figs. 3-5 vary the per-FPGA
resource constraint and solve each point with several methods; that grid is
:func:`repro.explore.compare.compare_methods_over`, which solves every point
exactly as a single ``solve()`` would.  This module holds the other sweeps:
the heuristic parameter ``T`` at a fixed ``delta`` (Fig. 2) and the number of
FPGAs (the scalability study), returning plain data points that the
reporting layer turns into tables/figures.

All sweeps execute through :class:`~repro.explore.executor.SweepExecutor`:
pass an executor configured for a process pool to fan points out over CPUs,
or keep the default chunked-serial execution.  The T-sweep solves the GP
relaxation + discretisation once per constraint (they do not depend on
``T``) via the discretisation memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome
from .executor import DEFAULT_EXECUTOR, SolveTask, SweepExecutor, run_solve_task


@dataclass(frozen=True)
class SweepPoint:
    """One (resource constraint, method) sample of a sweep."""

    resource_constraint: float
    method: str
    outcome: SolveOutcome

    @property
    def feasible(self) -> bool:
        return self.outcome.succeeded

    @property
    def initiation_interval(self) -> float:
        return self.outcome.initiation_interval

    @property
    def average_utilization(self) -> float:
        if self.outcome.solution is None:
            return float("nan")
        return self.outcome.solution.average_utilization

    @property
    def runtime_seconds(self) -> float:
        return self.outcome.runtime_seconds


def default_constraint_range(start: float = 40.0, stop: float = 90.0, step: float = 5.0) -> list[float]:
    """The resource-constraint grid used across the paper's figures.

    The grid is generated from an integer index (``start + i * step``), not
    by repeated addition, so fractional steps cannot accumulate drift and
    silently drop the final point.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [round(start + index * step, 6) for index in range(max(0, count))]


def _run_t_sweep_chunk(task: "TSweepTask") -> list[tuple[float, SweepPoint]]:
    """Solve one constraint for every T value (module-level for pickling).

    Runs in a single worker so the GP + discretisation work, which is
    independent of ``T``, is computed once and shared via the memo caches.
    """
    points: list[tuple[float, SweepPoint]] = []
    for t_value in task.t_values:
        settings = HeuristicSettings(t_percent=t_value, delta_percent=task.delta_percent)
        outcome = run_solve_task(
            SolveTask(problem=task.problem, method="gp+a", heuristic_settings=settings)
        )
        points.append(
            (
                t_value,
                SweepPoint(
                    resource_constraint=task.constraint, method="gp+a", outcome=outcome
                ),
            )
        )
    return points


@dataclass(frozen=True)
class TSweepTask:
    """One constraint of a Figure 2 T-parameter sweep."""

    problem: AllocationProblem
    constraint: float
    t_values: tuple[float, ...]
    delta_percent: float


def t_parameter_sweep(
    problem: AllocationProblem,
    constraints: Sequence[float],
    t_values: Sequence[float] = (0.0, 2.5, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
    delta_percent: float = 1.0,
    executor: SweepExecutor | None = None,
) -> dict[float, list[SweepPoint]]:
    """Figure 2 sweep: GP+A at several values of the T parameter.

    Returns ``{T: [SweepPoint per constraint]}``.  Tasks are grouped by
    constraint so every worker shares one GP relaxation + discretisation
    across all ``T`` values of its constraint.
    """
    executor = executor or DEFAULT_EXECUTOR
    tasks = [
        TSweepTask(
            problem=problem.with_resource_constraint(constraint),
            constraint=constraint,
            t_values=tuple(t_values),
            delta_percent=delta_percent,
        )
        for constraint in constraints
    ]
    per_constraint = executor.map(_run_t_sweep_chunk, tasks)
    results: dict[float, list[SweepPoint]] = {t_value: [] for t_value in t_values}
    for chunk in per_constraint:
        for t_value, point in chunk:
            results[t_value].append(point)
    return results


def _run_fpga_count_task(task: SolveTask) -> tuple[int, SolveOutcome]:
    return task.tag[0], run_solve_task(task)


def fpga_count_sweep(
    problem: AllocationProblem,
    fpga_counts: Sequence[int],
    method: str = "gp+a",
    executor: SweepExecutor | None = None,
) -> list[tuple[int, SolveOutcome]]:
    """Scalability sweep over the number of FPGAs (2 to 8 in the paper)."""
    executor = executor or DEFAULT_EXECUTOR
    tasks = [
        SolveTask(
            problem=AllocationProblem(
                pipeline=problem.pipeline,
                platform=problem.platform.with_num_fpgas(count),
                weights=problem.weights,
            ),
            method=method,
            tag=(count,),
        )
        for count in fpga_counts
    ]
    return executor.map(_run_fpga_count_task, tasks)
