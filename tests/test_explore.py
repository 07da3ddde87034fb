"""Tests for the design-space exploration helpers (sweeps, comparisons, runtime)."""

import math
from dataclasses import replace

import pytest

from repro.core.exact import ExactSettings
from repro.core.heuristic import HeuristicSettings
from repro.core.solvers import solve
from repro.explore.compare import (
    ComparisonSettings,
    compare_methods_over,
    speedup_summary,
)
from repro.explore.executor import ExecutorSettings, SweepExecutor
from repro.explore.runtime import (
    measure_method_runtime,
    runtime_comparison,
    speedups,
    time_callable,
)
from repro.explore.sweep import (
    default_constraint_range,
    fpga_count_sweep,
    t_parameter_sweep,
)
from repro.platform.resources import ResourceVector
from repro.reporting.experiments import skew_platform
from repro.reporting.trace import cold_solver_caches

FAST_EXACT = ExactSettings(max_nodes=2, time_limit_seconds=10.0)


def answer(outcome):
    """An outcome document minus its wall clock and work counters."""
    document = outcome.to_dict()
    del document["runtime_seconds"], document["counters"]
    return document


class TestSweeps:
    def test_default_constraint_range(self):
        values = default_constraint_range(40, 90, 10)
        assert values == [40, 50, 60, 70, 80, 90]
        with pytest.raises(ValueError):
            default_constraint_range(step=0)

    def test_constraint_grid_monotone_ii(self, alex16_problem):
        points = compare_methods_over(
            alex16_problem, [60, 75, 90], ComparisonSettings(methods=("gp+a",))
        )
        outcomes = [point.outcomes["gp+a"] for point in points]
        assert all(outcome.succeeded for outcome in outcomes)
        iis = [outcome.initiation_interval for outcome in outcomes]
        # Loosening the constraint never makes the heuristic much worse;
        # the extremes must be ordered.
        assert iis[-1] <= iis[0] + 1e-9

    def test_sweep_keeps_infeasible_points(self, alex16_problem):
        # 8 % is below CONV1's single-CU BRAM demand, so no allocation exists.
        points = compare_methods_over(
            alex16_problem, [8, 80], ComparisonSettings(methods=("gp+a",))
        )
        assert [point.resource_constraint for point in points] == [8, 80]
        assert not points[0].outcomes["gp+a"].succeeded
        assert math.isinf(points[0].initiation_interval("gp+a"))
        assert math.isnan(points[0].average_utilization("gp+a"))
        assert points[1].outcomes["gp+a"].succeeded

    def test_sweep_multiple_methods(self, tiny_problem):
        (point,) = compare_methods_over(
            tiny_problem, [80], ComparisonSettings(methods=("gp+a", "minlp"))
        )
        assert set(point.outcomes) == {"gp+a", "minlp"}

    def test_t_parameter_sweep_shape(self, alex16_problem):
        results = t_parameter_sweep(alex16_problem, constraints=[70, 80], t_values=(0.0, 10.0))
        assert set(results) == {0.0, 10.0}
        assert len(results[0.0]) == 2

    def test_fpga_count_sweep(self, alex16_problem):
        outcomes = fpga_count_sweep(alex16_problem, [2, 4], method="gp+a")
        assert [count for count, _ in outcomes] == [2, 4]
        ii2 = outcomes[0][1].initiation_interval
        ii4 = outcomes[1][1].initiation_interval
        assert ii4 <= ii2 + 1e-9


class TestComparisons:
    def test_compare_methods_over(self, alex16_problem):
        points = compare_methods_over(
            alex16_problem, [65, 80], ComparisonSettings(methods=("gp+a", "minlp"), exact=FAST_EXACT)
        )
        assert len(points) == 2
        for point in points:
            assert point.initiation_interval("minlp") <= point.initiation_interval("gp+a") + 1e-9
            assert point.average_utilization("gp+a") > 0
            assert point.runtime("gp+a") > 0

    def test_repeated_constraint_is_solved_once(self, alex16_problem, monkeypatch):
        from repro.explore import compare

        tasks = []
        run_solve_task = compare.run_solve_task

        def counting(task):
            tasks.append(task)
            return run_solve_task(task)

        monkeypatch.setattr(compare, "run_solve_task", counting)
        points = compare_methods_over(
            alex16_problem,
            [70.0, 70.0],
            ComparisonSettings(methods=("gp+a",)),
            executor=SweepExecutor(ExecutorSettings(parallel=False)),
        )
        assert len(tasks) == 1
        assert [point.resource_constraint for point in points] == [70.0, 70.0]
        assert points[0].outcomes == points[1].outcomes

    @pytest.mark.parametrize(
        "executor_settings",
        [
            ExecutorSettings(parallel=False),
            ExecutorSettings(parallel=True, max_workers=2, chunk_size=1),
        ],
        ids=["serial", "parallel"],
    )
    @pytest.mark.parametrize(
        "methods",
        [("gp+a",), ("minlp",), ("minlp+g",), ("gp+a", "minlp", "minlp+g")],
        ids=["gp+a", "minlp", "minlp+g", "all"],
    )
    def test_grid_point_matches_cold_solve(self, alex16_problem, methods, executor_settings):
        """Every grid point answers what a cold ``solve()`` (``/solve``) does.

        Each point is solved on its own, so minlp+g's node-limited search
        sees the same LP vertices as a single solve of that problem; a grid
        over all three methods shares the memo tiers between them and must
        still answer the same.
        """
        problem = alex16_problem.with_paper_weights()
        settings = ComparisonSettings(methods=methods, exact=ExactSettings(max_nodes=3))

        cold_solver_caches()
        points = compare_methods_over(
            problem, [65.0, 80.0], settings, executor=SweepExecutor(executor_settings)
        )
        for point in points:
            constrained = problem.with_resource_constraint(point.resource_constraint)
            for method in settings.methods:
                cold_solver_caches()
                solo = solve(
                    constrained,
                    method=method,
                    heuristic_settings=settings.heuristic,
                    exact_settings=settings.exact,
                )
                assert answer(point.outcomes[method]) == answer(solo), (
                    point.resource_constraint,
                    method,
                )

    def test_grid_on_skewed_platform_flattens_every_class(self, alex16_problem):
        """A grid point caps every FPGA of a skewed two-class fleet at the
        point's constraint and answers what a solve of that problem does."""
        hetero = replace(
            alex16_problem, platform=skew_platform(20.0, base_constraint=70.0)
        )
        points = compare_methods_over(hetero, [56.0, 70.0], ComparisonSettings(methods=("gp+a",)))
        for point in points:
            constrained = hetero.with_resource_constraint(point.resource_constraint)
            assert not constrained.platform.is_homogeneous
            assert set(constrained.platform.fpga_resource_limits()) == {
                ResourceVector.full(point.resource_constraint)
            }
            outcome = point.outcomes["gp+a"]
            assert outcome.succeeded
            assert answer(outcome) == answer(solve(constrained, method="gp+a"))

    def test_speedup_summary(self, alex16_problem):
        points = compare_methods_over(
            alex16_problem, [70], ComparisonSettings(methods=("gp+a", "minlp"), exact=FAST_EXACT)
        )
        summary = speedup_summary(points, baseline="gp+a", reference="minlp")
        assert summary["min"] <= summary["geomean"] <= summary["max"]

    def test_speedup_summary_empty(self):
        summary = speedup_summary([], baseline="gp+a", reference="minlp")
        assert math.isnan(summary["geomean"])


class TestRuntime:
    def test_time_callable(self):
        samples = time_callable(lambda: sum(range(1000)), repetitions=3)
        assert len(samples) == 3
        assert all(s >= 0 for s in samples)
        with pytest.raises(ValueError):
            time_callable(lambda: None, repetitions=0)

    def test_measure_method_runtime(self, tiny_problem):
        measurement = measure_method_runtime(tiny_problem, "gp+a", "tiny", repetitions=2)
        assert measurement.method == "gp+a"
        assert measurement.mean_seconds > 0
        assert measurement.min_seconds <= measurement.median_seconds

    def test_runtime_comparison_and_speedups(self, tiny_problem):
        measurements = runtime_comparison(
            [("tiny", tiny_problem)], methods=("gp+a", "minlp"), repetitions=1
        )
        assert len(measurements) == 2
        ratios = speedups(measurements, baseline_method="gp+a")
        assert "tiny" in ratios and "minlp" in ratios["tiny"]
