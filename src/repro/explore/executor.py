"""Parallel/batched execution engine for design-space sweeps.

Every figure of the paper is a sweep: dozens to hundreds of independent
``solve(problem, method)`` calls.  This module provides the one place where
those calls are executed:

* :class:`SweepExecutor` maps a task function over a list of picklable task
  objects, either serially (in deterministic chunks) or on a
  ``ProcessPoolExecutor`` when multiple CPUs are available;
* :class:`SolveTask` (+ :func:`run_solve_task`) is the standard work unit --
  one problem, one method -- used by :mod:`repro.explore.sweep`,
  :mod:`repro.explore.compare` and :mod:`repro.explore.runtime`.

Tasks for the same constraint are chunked together so that one worker keeps
the per-process caches warm (the discretisation memo of
:mod:`repro.core.discretize` turns the 8 heuristic-parameter re-solves of a
Figure 2 T-sweep into one cold solve plus seven memo hits).  Any pool
failure -- unpicklable task, missing ``fork`` support, resource limits --
falls back to the serial path, so results never depend on the execution
mode; a parity test asserts serial and parallel runs return identical
outcomes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence, TypeVar

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solution import SolveOutcome
from ..core.solvers import solve

TaskT = TypeVar("TaskT")
ResultT = TypeVar("ResultT")


def available_workers() -> int:
    """Usable CPU count (respects sched_setaffinity where available)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ExecutorSettings:
    """How a sweep should be executed.

    ``parallel=None`` auto-detects: a process pool is used only when more
    than one CPU is available and the task list is large enough to amortise
    worker start-up.  ``chunk_size=None`` derives a chunk size that gives
    every worker a handful of batches.
    """

    parallel: bool | None = None
    max_workers: int | None = None
    chunk_size: int | None = None
    min_tasks_for_pool: int = 4

    def resolved_workers(self) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        return available_workers()

    def should_parallelize(self, num_tasks: int) -> bool:
        if multiprocessing.current_process().daemon:
            # Daemonic processes (e.g. the service's pool workers) may not
            # have children: solve serially instead of failing the pool.
            return False
        if self.parallel is not None:
            return self.parallel and self.resolved_workers() > 1
        return self.resolved_workers() > 1 and num_tasks >= self.min_tasks_for_pool


def _run_chunk(function: Callable[[TaskT], ResultT], chunk: list[TaskT]) -> list[ResultT]:
    """Worker-side execution of one chunk (module-level: must pickle)."""
    return [function(task) for task in chunk]


class SweepExecutor:
    """Maps a function over tasks, in order, serially or on a process pool.

    By default each :meth:`map` call spins a pool up and tears it down again,
    which is right for one-shot sweeps.  A *persistent* executor
    (``persistent=True``) keeps the pool alive between calls so a resident
    service (``repro serve``) does not pay worker start-up -- nor lose the
    workers' warm memo caches -- on every batch.  Call :meth:`close` (or use
    the executor as a context manager) to release the workers.
    """

    def __init__(self, settings: ExecutorSettings = ExecutorSettings(), persistent: bool = False):
        self.settings = settings
        self.persistent = persistent
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _persistent_pool(self) -> ProcessPoolExecutor:
        """The resident pool, created once (the HTTP server maps concurrently)."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.settings.resolved_workers())
            return self._pool

    def close(self) -> None:
        """Shut down the persistent pool, if one was ever started."""
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown()
                self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def map(self, function: Callable[[TaskT], ResultT], tasks: Sequence[TaskT]) -> list[ResultT]:
        """Run ``function`` over every task, preserving task order.

        Parallel execution requires ``function`` and every task to be
        picklable; when they are not (or the pool cannot start at all), the
        executor silently degrades to the chunked serial path, which computes
        the same results.
        """
        task_list = list(tasks)
        if not task_list:
            return []
        chunks = self._chunked(task_list)
        if self.settings.should_parallelize(len(task_list)):
            try:
                return self._map_pool(function, chunks)
            except (BrokenProcessPool, pickle.PicklingError, AttributeError, OSError):
                # Pool-infrastructure failures only -- unpicklable tasks or
                # functions (PicklingError / "can't pickle local object"
                # AttributeError), fork restrictions, resource exhaustion:
                # recompute serially, same results.  Exceptions raised *by a
                # task* propagate unchanged instead of triggering a full
                # serial re-run.
                pass
        return [result for chunk in chunks for result in _run_chunk(function, chunk)]

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _chunked(self, tasks: list[TaskT]) -> list[list[TaskT]]:
        size = self.settings.chunk_size
        if size is None:
            workers = self.settings.resolved_workers()
            size = max(1, len(tasks) // max(1, workers * 4))
        size = max(1, size)
        return [tasks[start : start + size] for start in range(0, len(tasks), size)]

    def _map_pool(
        self, function: Callable[[TaskT], ResultT], chunks: list[list[TaskT]]
    ) -> list[ResultT]:
        if self.persistent:
            pool = self._persistent_pool()
            try:
                futures = [pool.submit(_run_chunk, function, chunk) for chunk in chunks]
                return [result for future in futures for result in future.result()]
            except BrokenProcessPool:
                # A broken pool never recovers; drop it so the next map call
                # starts fresh, and let map() fall back to the serial path.
                self.close()
                raise
        workers = min(self.settings.resolved_workers(), len(chunks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_chunk, function, chunk) for chunk in chunks]
            return [result for future in futures for result in future.result()]


#: Default executor: serial chunks unless the host has CPUs to spare.
DEFAULT_EXECUTOR = SweepExecutor()


# --------------------------------------------------------------------------- #
# The standard sweep work unit
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveTask:
    """One (problem, method) solver invocation of a sweep."""

    problem: AllocationProblem
    method: str = "gp+a"
    heuristic_settings: HeuristicSettings | None = None
    exact_settings: ExactSettings | None = None
    tag: tuple = field(default_factory=tuple)


def run_solve_task(task: SolveTask) -> SolveOutcome:
    """Execute one sweep task (module-level so process pools can pickle it)."""
    return solve(
        task.problem,
        method=task.method,
        heuristic_settings=task.heuristic_settings,
        exact_settings=task.exact_settings,
    )
