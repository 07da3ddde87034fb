"""Relaxation caching and warm-start plumbing of the branch-and-bound engine.

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
from repro.minlp.branch_and_bound import (
    RELAXATION_CACHE_ENTRIES,
    BBSettings,
    BranchAndBoundSolver,
    RelaxationResult,
    box_key,
    shared_relaxation_cache,
    shared_relaxation_caches_clear,
)
from repro.reporting.experiments import case_study


def _toy_relaxation(bounds: VariableBounds) -> RelaxationResult:
    """Minimise x + y over the box (x, y in ``names`` order); fractional
    interior point to force branching."""
    point = np.minimum(bounds.lower + 0.4, bounds.upper)
    return RelaxationResult(feasible=True, objective=float(point.sum()), values=point)


def _toy_evaluate(candidate):
    return float(candidate[0] + candidate[1])


def _cache() -> Memo:
    return Memo(RELAXATION_CACHE_ENTRIES)


def _toy_solver(cache: "Memo | None", relaxation=_toy_relaxation) -> BranchAndBoundSolver:
    return BranchAndBoundSolver(
        relaxation_solver=relaxation,
        incumbent_evaluator=_toy_evaluate,
        settings=BBSettings(max_nodes=100),
        relaxation_cache=cache,
    )


class TestRelaxationCache:
    def test_get_and_put_by_box_key(self):
        cache = _cache()
        bounds = VariableBounds.from_ranges({"x": (1, 5), "y": (1, 5)})
        assert cache.get(box_key(bounds)) is None
        cache.put(box_key(bounds), _toy_relaxation(bounds))
        assert cache.get(box_key(bounds)) is not None
        assert len(cache) == 1

    def test_key_is_the_positional_box(self):
        a = VariableBounds.from_ranges({"x": (1, 5), "y": (2, 3)})
        same = VariableBounds.from_ranges({"x": (1, 5), "y": (2, 3)})
        assert box_key(a) == box_key(same)
        # One tree's boxes share one names tuple; a different variable order
        # or a different box is a different key.
        reordered = VariableBounds.from_ranges({"y": (2, 3), "x": (1, 5)})
        assert box_key(a) != box_key(reordered)
        assert box_key(a) != box_key(a.with_upper(0, 4))
        assert box_key(a.with_upper(0, 4)) == box_key(same.with_upper(0, 4))

    def test_eviction_is_bounded(self):
        cache = Memo(2)
        for lower in range(1, 5):
            bounds = VariableBounds.from_ranges({"x": (lower, lower + 1)})
            cache.put(box_key(bounds), RelaxationResult(feasible=True, objective=float(lower)))
        assert len(cache) == 2

    def test_a_run_counts_only_its_own_lookups(self):
        """A second search over the same shared cache -- started from inside
        the first one's relaxation solver, as a concurrent request would run
        -- adds nothing to the first search's hit and miss counts."""
        cache = _cache()
        inner: list = []

        def relaxation(bounds: VariableBounds) -> RelaxationResult:
            if not inner:
                inner.append(None)
                inner[0] = _toy_solver(cache).solve(
                    VariableBounds.from_ranges({"u": (1, 4), "v": (1, 4)})
                )
            return _toy_relaxation(bounds)

        bounds = VariableBounds.from_ranges({"x": (1, 4), "y": (1, 4)})
        outer = _toy_solver(cache, relaxation).solve(bounds)
        alone = _toy_solver(_cache()).solve(bounds)
        assert inner[0].relaxation_cache_misses > 0
        assert outer.relaxation_cache_hits == alone.relaxation_cache_hits == 0
        assert outer.relaxation_cache_misses == alone.relaxation_cache_misses

    def test_shared_cache_across_solver_runs(self):
        """A second identical solve over a shared cache re-solves nothing."""
        cache = _cache()
        bounds = VariableBounds.from_ranges({"x": (1, 4), "y": (1, 4)})

        def run():
            return _toy_solver(cache).solve(bounds)

        first = run()
        assert first.relaxation_cache_hits == 0
        assert first.relaxation_cache_misses > 0
        second = run()
        assert second.objective == first.objective
        assert np.array_equal(second.solution, first.solution)
        assert second.relaxation_cache_misses == 0
        assert second.relaxation_cache_hits == first.relaxation_cache_misses

    def test_results_identical_with_and_without_cache(self):
        bounds = VariableBounds.from_ranges({"x": (1, 6), "y": (1, 6)})
        plain = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation, incumbent_evaluator=_toy_evaluate
        ).solve(bounds)
        cached = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation,
            incumbent_evaluator=_toy_evaluate,
            relaxation_cache=_cache(),
        ).solve(bounds)
        assert cached.objective == plain.objective
        assert np.array_equal(cached.solution, plain.solution)


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

    def test_single_argument_solvers_still_work(self):
        solver = BranchAndBoundSolver(
            relaxation_solver=_toy_relaxation, incumbent_evaluator=_toy_evaluate
        )
        result = solver.solve(VariableBounds.from_ranges({"x": (1, 3), "y": (1, 3)}))
        assert result.solution.tolist() == [1, 1]


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

    def test_node_relaxation_cache_is_shared_across_runs(self):
        discretization_cache_clear()
        shared_relaxation_caches_clear()
        problem = case_study("vgg-16", resource_limit_percent=70.0)
        gp = solve_gp_step(problem)
        first = oracle_discretize(problem, gp.counts_hat)
        # Boxes within one tree are disjoint, so the first run only misses...
        assert first.cache_misses > 0
        assert first.cache_hits == 0
        # ...but a second discretisation of the same problem replays the
        # same boxes out of the shared per-problem cache.
        second = oracle_discretize(problem, gp.counts_hat)
        assert second.cache_hits > 0
        assert second.counts == first.counts
        assert second.ii == first.ii
        shared_relaxation_caches_clear()
        discretization_cache_clear()

    def test_shared_cache_registry_keys_by_problem(self):
        shared_relaxation_caches_clear()
        a = shared_relaxation_cache(("discretize", "p1"))
        b = shared_relaxation_cache(("discretize", "p2"))
        assert a is not b
        assert shared_relaxation_cache(("discretize", "p1")) is a
        shared_relaxation_caches_clear()


def test_warm_start_used_by_discretisation_changes_nothing():
    """B&B with warm-started vectorized relaxations reaches the exact optimum."""
    shared_relaxation_caches_clear()
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
    shared_relaxation_caches_clear()
