"""The sweep execution engine: chunking, pool/serial parity, fallback."""

import math
import multiprocessing

import pytest

from repro.explore.compare import ComparisonSettings, compare_methods_over
from repro.explore.executor import (
    ExecutorSettings,
    SolveTask,
    SweepExecutor,
    available_workers,
    run_solve_task,
)
from repro.explore.sweep import default_constraint_range, t_parameter_sweep
from repro.reporting.experiments import case_study


def _square(value: int) -> int:
    return value * value


def _map_in_child(results) -> None:
    """Report what a forced-parallel executor does inside this process."""
    settings = ExecutorSettings(parallel=True, max_workers=2)
    try:
        results.put((settings.should_parallelize(8), SweepExecutor(settings).map(_square, range(8))))
    except Exception as error:  # reported, so the parent does not wait out its timeout
        results.put((settings.should_parallelize(8), repr(error)))


class TestExecutorBasics:
    def test_empty_task_list(self):
        assert SweepExecutor().map(_square, []) == []

    def test_serial_map_preserves_order(self):
        executor = SweepExecutor(ExecutorSettings(parallel=False, chunk_size=2))
        assert executor.map(_square, list(range(7))) == [v * v for v in range(7)]

    def test_parallel_map_matches_serial(self):
        tasks = list(range(10))
        serial = SweepExecutor(ExecutorSettings(parallel=False)).map(_square, tasks)
        parallel = SweepExecutor(
            ExecutorSettings(parallel=True, max_workers=2, chunk_size=3)
        ).map(_square, tasks)
        assert parallel == serial

    def test_unpicklable_function_falls_back_to_serial(self):
        executor = SweepExecutor(ExecutorSettings(parallel=True, max_workers=2))
        assert executor.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]

    def test_chunking_covers_every_task(self):
        executor = SweepExecutor(ExecutorSettings(chunk_size=4))
        chunks = executor._chunked(list(range(10)))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert [item for chunk in chunks for item in chunk] == list(range(10))

    def test_auto_parallel_respects_cpu_count_and_task_floor(self):
        settings = ExecutorSettings()
        if available_workers() == 1:
            assert not settings.should_parallelize(100)
        assert not ExecutorSettings(min_tasks_for_pool=50).should_parallelize(10) or (
            available_workers() > 1
        )
        assert not ExecutorSettings(parallel=False).should_parallelize(1000)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
    )
    def test_daemonic_process_maps_serially(self):
        # Daemonic processes (the service's pool workers) may not start
        # children; a pool there would raise instead of solving.
        context = multiprocessing.get_context("fork")
        results = context.Queue()
        child = context.Process(target=_map_in_child, args=(results,), daemon=True)
        child.start()
        parallel, mapped = results.get(timeout=60)
        child.join(timeout=60)
        assert parallel is False
        assert mapped == [v * v for v in range(8)]

    def test_executor_settings_workers(self):
        assert ExecutorSettings(max_workers=3).resolved_workers() == 3
        assert ExecutorSettings(max_workers=0).resolved_workers() == 1
        assert ExecutorSettings().resolved_workers() >= 1


class TestSweepParity:
    @pytest.fixture(scope="class")
    def problem(self):
        return case_study("alex-16")

    def test_resource_sweep_serial_vs_parallel(self, problem):
        constraints = [60.0, 70.0, 80.0]
        settings = ComparisonSettings(methods=("gp+a",))
        serial = compare_methods_over(
            problem,
            constraints,
            settings,
            executor=SweepExecutor(ExecutorSettings(parallel=False)),
        )
        parallel = compare_methods_over(
            problem,
            constraints,
            settings,
            executor=SweepExecutor(
                ExecutorSettings(parallel=True, max_workers=2, chunk_size=1)
            ),
        )
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            assert a.resource_constraint == b.resource_constraint
            assert set(a.outcomes) == set(b.outcomes) == {"gp+a"}
            assert a.outcomes["gp+a"].status == b.outcomes["gp+a"].status
            assert a.initiation_interval("gp+a") == pytest.approx(
                b.initiation_interval("gp+a"), abs=1e-12
            )

    def test_t_sweep_groups_share_constraint_work(self, problem):
        results = t_parameter_sweep(
            problem,
            constraints=[70.0, 80.0],
            t_values=(0.0, 10.0),
            executor=SweepExecutor(ExecutorSettings(parallel=False)),
        )
        assert set(results) == {0.0, 10.0}
        for points in results.values():
            assert [point.resource_constraint for point in points] == [70.0, 80.0]
            assert all(point.feasible for point in points)

    def test_solve_task_roundtrip(self, problem):
        outcome = run_solve_task(SolveTask(problem=problem.with_resource_constraint(80.0)))
        assert outcome.succeeded


class TestConstraintRange:
    def test_integer_grid_matches_legacy(self):
        assert default_constraint_range(40, 90, 10) == [40, 50, 60, 70, 80, 90]
        assert default_constraint_range() == [float(v) for v in range(40, 95, 5)]

    def test_fractional_step_has_no_drift(self):
        values = default_constraint_range(40.0, 90.0, 0.1)
        # 40.0 .. 90.0 inclusive in 0.1 steps: repeated addition drifts past
        # the stop and drops the final point; the index form must not.
        assert len(values) == 501
        assert values[0] == 40.0
        assert values[-1] == 90.0
        assert all(
            math.isclose(b - a, 0.1, abs_tol=1e-9) for a, b in zip(values, values[1:])
        )

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            default_constraint_range(step=0)
        with pytest.raises(ValueError):
            default_constraint_range(step=-1)

    def test_stop_below_start_gives_empty_grid(self):
        assert default_constraint_range(90.0, 40.0, 5.0) == []


class TestPersistentPool:
    def test_persistent_executor_reuses_one_pool_across_maps(self):
        executor = SweepExecutor(
            ExecutorSettings(parallel=True, max_workers=2, chunk_size=2), persistent=True
        )
        with executor:
            first = executor.map(_square, list(range(6)))
            pool = executor._pool
            second = executor.map(_square, list(range(6, 12)))
            assert executor._pool is pool  # same resident pool, no restart
        assert executor._pool is None  # context exit released the workers
        assert first == [v * v for v in range(6)]
        assert second == [v * v for v in range(6, 12)]

    def test_persistent_executor_matches_serial_results(self):
        tasks = list(range(9))
        serial = SweepExecutor(ExecutorSettings(parallel=False)).map(_square, tasks)
        with SweepExecutor(
            ExecutorSettings(parallel=True, max_workers=2), persistent=True
        ) as executor:
            assert executor.map(_square, tasks) == serial

    def test_close_without_pool_is_a_no_op(self):
        executor = SweepExecutor(persistent=True)
        executor.close()
        executor.close()

    def test_persistent_unpicklable_falls_back_to_serial(self):
        with SweepExecutor(
            ExecutorSettings(parallel=True, max_workers=2), persistent=True
        ) as executor:
            assert executor.map(lambda v: v + 1, [1, 2, 3]) == [2, 3, 4]
