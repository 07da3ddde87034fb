"""Warm-start plumbing of the branch-and-bound engine and the
discretisation memo.

The engine's discretisation client is the branch-and-bound oracle in
``tests/discretize_oracle.py``; production discretisation is a threshold
search with only a cross-call memo.
"""

import math
import sys
import threading

import numpy as np
import pytest
from discretize_oracle import oracle_discretize

from repro.core import discretize
from repro.core.discretize import discretization_cache_clear, discretize_counts
from repro.core.gp_step import solve_gp_step
from repro.memo import Memo
from repro.minlp.bounds import VariableBounds
from repro.minlp.branch_and_bound import BBSettings, BranchAndBoundSolver, RelaxationResult
from repro.reporting.experiments import case_study


def _toy_relaxation(bounds: VariableBounds, parent=None) -> RelaxationResult:
    """Minimise x + y over the box (x, y in ``names`` order); fractional
    interior point to force branching."""
    point = np.minimum(bounds.lower + 0.4, bounds.upper)
    return RelaxationResult(feasible=True, objective=float(point.sum()), values=point)


def _toy_evaluate(candidate):
    return float(candidate[0] + candidate[1])


class TestWarmStartPlumbing:
    def test_parent_relaxation_is_passed_to_children(self):
        seen_parents = []

        def relaxation(bounds: VariableBounds, parent=None) -> RelaxationResult:
            seen_parents.append(parent)
            return _toy_relaxation(bounds)

        solver = BranchAndBoundSolver(
            relaxation_solver=relaxation,
            incumbent_evaluator=_toy_evaluate,
            settings=BBSettings(max_nodes=50),
        )
        result = solver.solve(VariableBounds.from_ranges({"x": (1, 4), "y": (1, 4)}))
        assert math.isfinite(result.objective)
        # The root sees no parent; every child node sees a feasible parent
        # whose objective bounds its own from below.
        assert seen_parents[0] is None
        assert len(seen_parents) > 1
        assert all(parent is not None and parent.feasible for parent in seen_parents[1:])


class TestDiscretizationMemo:
    def test_memo_hits_on_repeated_discretisation(self):
        discretization_cache_clear()
        problem = case_study("alex-16", resource_limit_percent=70.0)
        first = discretize_counts(problem)
        assert discretize_counts(problem) is first
        assert len(discretize._memo) == 1
        discretization_cache_clear()

    def test_memo_distinguishes_constraints(self):
        discretization_cache_clear()
        for constraint in (65.0, 70.0):
            problem = case_study("alex-16", resource_limit_percent=constraint)
            discretize_counts(problem)
        assert len(discretize._memo) == 2
        discretization_cache_clear()

    def test_use_cache_false_bypasses_the_memo(self):
        discretization_cache_clear()
        problem = case_study("alex-16", resource_limit_percent=70.0)
        discretize_counts(problem, use_cache=False)
        assert len(discretize._memo) == 0
        discretization_cache_clear()

    def test_memo_is_thread_safe_under_eviction(self, monkeypatch):
        """Concurrent solves (HTTP handlers and job workers) share the memo:
        with a 2-entry cap every thread's hit races another's eviction, yet
        no lookup raises and every answer is the exact one."""
        monkeypatch.setattr(discretize, "_memo", Memo(2))
        problems = [
            case_study("alex-16", resource_limit_percent=60.0 + 4.0 * index)
            for index in range(8)
        ]
        expected = [discretize_counts(problem, use_cache=False) for problem in problems]
        rounds = 200
        start = threading.Barrier(len(problems))
        errors: list[BaseException] = []

        def worker(problem, answer):
            start.wait()
            try:
                for _ in range(rounds):
                    assert discretize_counts(problem) == answer
            except BaseException as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=pair) for pair in zip(problems, expected)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(discretize._memo) <= 2

    def test_concurrent_lookups_of_one_problem_share_one_entry(self):
        """Threads racing on one key all get the memoised answer."""
        problem = case_study("alex-16", resource_limit_percent=70.0)
        num_threads, rounds = 8, 100
        start = threading.Barrier(num_threads)
        results: list[list] = [[] for _ in range(num_threads)]

        def worker(index):
            start.wait()
            for _ in range(rounds):
                results[index].append(discretize_counts(problem))

        discretization_cache_clear()
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        entries = len(discretize._memo)
        discretization_cache_clear()
        expected = discretize_counts(problem, use_cache=False)
        assert all(result == expected for batch in results for result in batch)
        assert entries == 1

def test_warm_start_used_by_discretisation_changes_nothing():
    """B&B with warm-started vectorized relaxations reaches the exact optimum."""
    for case in ("alex-16", "alex-32", "vgg-16"):
        problem = case_study(case, resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        result = oracle_discretize(problem, gp.counts_hat)
        assert result.proven_optimal
        assert result.ii == pytest.approx(
            max(problem.wcet[n] / result.counts[n] for n in problem.kernel_names)
        )
        exact = discretize_counts(problem, use_cache=False)
        assert result.ii == pytest.approx(exact.ii, rel=1e-12)
