"""Solver runtime measurement (the CPU-time comparison of Section 4).

Measurements run through :class:`~repro.explore.executor.SweepExecutor`, but
unlike the sweeps the default here is strictly serial even on multi-core
hosts: concurrent workers contend for cores and would inflate the sampled
wall-clock times.  Pass a pool executor explicitly only when indicative
numbers are acceptable.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solvers import solve
from .executor import SERIAL_EXECUTOR, SweepExecutor


@dataclass(frozen=True)
class RuntimeMeasurement:
    """Wall-clock statistics of repeated solver runs."""

    method: str
    case: str
    samples_seconds: tuple[float, ...]

    @property
    def mean_seconds(self) -> float:
        return statistics.fmean(self.samples_seconds)

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.samples_seconds)

    @property
    def min_seconds(self) -> float:
        return min(self.samples_seconds)


def time_callable(function: Callable[[], object], repetitions: int = 3) -> tuple[float, ...]:
    """Wall-clock samples of repeated calls to ``function``."""
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        function()
        samples.append(time.perf_counter() - start)
    return tuple(samples)


def measure_method_runtime(
    problem: AllocationProblem,
    method: str,
    case_name: str,
    repetitions: int = 3,
    heuristic_settings: HeuristicSettings | None = None,
    exact_settings: ExactSettings | None = None,
) -> RuntimeMeasurement:
    """Measure the wall-clock time of one solver on one problem."""
    samples = time_callable(
        lambda: solve(
            problem,
            method=method,
            heuristic_settings=heuristic_settings,
            exact_settings=exact_settings,
        ),
        repetitions=repetitions,
    )
    return RuntimeMeasurement(method=method, case=case_name, samples_seconds=samples)


@dataclass(frozen=True)
class _MeasureTask:
    """One (case, method) runtime measurement (picklable work unit)."""

    case: str
    problem: AllocationProblem
    method: str
    repetitions: int
    exact_settings: ExactSettings | None


def _run_measure_task(task: _MeasureTask) -> RuntimeMeasurement:
    return measure_method_runtime(
        task.problem,
        task.method,
        task.case,
        repetitions=task.repetitions,
        exact_settings=task.exact_settings,
    )


def runtime_comparison(
    cases: Sequence[tuple[str, AllocationProblem]],
    methods: Sequence[str] = ("gp+a", "minlp", "minlp+g"),
    repetitions: int = 1,
    exact_settings: ExactSettings | None = None,
    executor: SweepExecutor | None = None,
) -> list[RuntimeMeasurement]:
    """Measure every method on every case (the Section 4 runtime table)."""
    executor = executor or SERIAL_EXECUTOR
    tasks = [
        _MeasureTask(
            case=case_name,
            problem=problem,
            method=method,
            repetitions=repetitions,
            exact_settings=exact_settings,
        )
        for case_name, problem in cases
        for method in methods
    ]
    return executor.map(_run_measure_task, tasks)


def speedups(measurements: Sequence[RuntimeMeasurement], baseline_method: str = "gp+a") -> dict[str, dict[str, float]]:
    """Per-case speedup of every method relative to the baseline method."""
    by_case: dict[str, dict[str, float]] = {}
    baseline: dict[str, float] = {
        m.case: m.median_seconds for m in measurements if m.method == baseline_method
    }
    for measurement in measurements:
        if measurement.method == baseline_method:
            continue
        base = baseline.get(measurement.case)
        if base is None or base <= 0:
            continue
        by_case.setdefault(measurement.case, {})[measurement.method] = (
            measurement.median_seconds / base
        )
    return by_case
