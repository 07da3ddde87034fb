"""Tests for the GP+A heuristic, the exact solvers and the solve() front-end."""

import math

import pytest

from repro.core.exact import (
    ExactSettings,
    candidate_ii_values,
    solve_exact_min_ii,
    solve_exact_weighted,
)
from repro.core.heuristic import HeuristicSettings, solve_gp_a
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.core.solution import SolveStatus
from repro.core.solvers import METHODS, solve, solver_for
from repro.core.validate import check_outcome_consistency, compare_methods, validate_solution
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

FAST_EXACT = ExactSettings(max_nodes=5, time_limit_seconds=20.0)


class TestHeuristic:
    def test_produces_feasible_solution(self, alex16_problem):
        outcome = solve_gp_a(alex16_problem)
        assert outcome.succeeded
        assert outcome.solution is not None
        assert outcome.solution.is_feasible()
        assert outcome.method == "gp+a"

    def test_lower_bound_is_respected(self, alex16_problem):
        outcome = solve_gp_a(alex16_problem)
        assert outcome.initiation_interval >= outcome.lower_bound - 1e-9

    def test_details_record_pipeline_stages(self, alex16_problem):
        outcome = solve_gp_a(alex16_problem)
        assert "ii_hat" in outcome.details
        assert "integer_counts" in outcome.details
        assert "allocator_iterations" in outcome.details

    def test_infeasible_platform_reported(self, tiny_pipeline):
        problem = AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=1, resource_limit_percent=25.0),
        )
        outcome = solve_gp_a(problem)
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.solution is None

    def test_t_parameter_changes_little(self, alex16_problem):
        """Figure 2's message: T has little effect on the II."""
        t0 = solve_gp_a(alex16_problem, HeuristicSettings(t_percent=0.0))
        t30 = solve_gp_a(alex16_problem, HeuristicSettings(t_percent=30.0))
        assert t30.initiation_interval <= t0.initiation_interval * 1.25 + 1e-9

    def test_outcome_names_no_retired_option(self, tiny_problem):
        """The GP step and the discretisation have one solver each: the
        settings cannot pick another and the outcome does not name one."""
        details = solve_gp_a(tiny_problem).details
        assert "gp_backend" not in details
        assert "discretization_nodes" not in details
        for retired in ("gp_backend", "use_bb_discretization"):
            assert not hasattr(HeuristicSettings(), retired)


class TestExactMinII:
    def test_tiny_problem_optimum_is_provable(self, tiny_problem):
        outcome = solve_exact_min_ii(tiny_problem)
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.solution is not None
        assert outcome.solution.is_feasible()
        # Aggregate DSP cap is 160 %: N_A=3, N_B=1, N_C=3 costs exactly 160 and
        # packs as {2xC + 1xA} / {1xC + 2xA + 1xB}, giving II = 4.0 ms.
        # Any II below 4.0 needs N_B >= 2 or N_C >= 4, which exceeds the cap.
        assert outcome.initiation_interval == pytest.approx(4.0)

    def test_never_worse_than_heuristic(self, alex16_problem):
        exact = solve_exact_min_ii(alex16_problem)
        heuristic = solve_gp_a(alex16_problem)
        assert exact.initiation_interval <= heuristic.initiation_interval + 1e-9

    def test_never_better_than_gp_relaxation(self, alex16_problem):
        from repro.core.gp_step import solve_gp_step

        exact = solve_exact_min_ii(alex16_problem)
        gp = solve_gp_step(alex16_problem)
        assert exact.initiation_interval >= gp.ii_hat - 1e-9

    def test_monotone_in_resource_constraint(self, alex16_problem):
        loose = solve_exact_min_ii(alex16_problem.with_resource_constraint(85.0))
        tight = solve_exact_min_ii(alex16_problem.with_resource_constraint(60.0))
        assert loose.initiation_interval <= tight.initiation_interval + 1e-9

    def test_candidate_ii_values_contain_optimum(self, tiny_problem):
        outcome = solve_exact_min_ii(tiny_problem)
        candidates = candidate_ii_values(tiny_problem)
        assert any(math.isclose(outcome.initiation_interval, c) for c in candidates)

    def test_infeasible_problem(self, tiny_pipeline):
        problem = AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=1, resource_limit_percent=25.0),
        )
        outcome = solve_exact_min_ii(problem)
        assert outcome.status is SolveStatus.INFEASIBLE


class TestExactWeighted:
    def test_weighted_solver_on_tiny_problem(self, tiny_weighted_problem):
        outcome = solve_exact_weighted(tiny_weighted_problem, FAST_EXACT)
        assert outcome.succeeded
        assert outcome.solution is not None
        assert outcome.solution.is_feasible()
        # Goal value must be at least the reported lower bound.
        goal = tiny_weighted_problem.weights.goal(
            outcome.solution.initiation_interval, outcome.solution.spreading
        )
        assert goal >= outcome.lower_bound - 1e-6

    def test_weighted_not_better_than_heuristic_goal_is_false(self, tiny_weighted_problem):
        """The exact weighted solver must match or beat the heuristic's goal."""
        heuristic = solve_gp_a(tiny_weighted_problem)
        exact = solve_exact_weighted(tiny_weighted_problem, FAST_EXACT)
        assert exact.objective <= heuristic.objective + 1e-6

    def test_beta_zero_falls_back_to_min_ii(self, tiny_problem):
        outcome = solve_exact_weighted(tiny_problem, FAST_EXACT)
        assert outcome.method == "minlp"

    def test_weighted_prefers_consolidation(self):
        """With a strong spreading weight, each kernel should sit on one FPGA."""
        pipeline = Pipeline(
            name="two",
            kernels=[
                Kernel("A", ResourceVector(dsp=20.0), bandwidth=1.0, wcet_ms=8.0),
                Kernel("B", ResourceVector(dsp=20.0), bandwidth=1.0, wcet_ms=8.0),
            ],
        )
        problem = AllocationProblem(
            pipeline=pipeline,
            platform=aws_f1(num_fpgas=2, resource_limit_percent=90.0),
            weights=ObjectiveWeights(alpha=1.0, beta=100.0),
        )
        outcome = solve_exact_weighted(problem, FAST_EXACT)
        assert outcome.succeeded
        for name in ("A", "B"):
            hosting = [c for c in outcome.solution.counts[name] if c > 0]
            assert len(hosting) == 1


class TestSolveFrontEnd:
    def test_method_registry(self):
        assert set(METHODS) == {"gp+a", "minlp", "minlp+g"}
        with pytest.raises(ValueError):
            solve.__wrapped__ if False else solver_for("nope")

    def test_solve_dispatches(self, tiny_problem, tiny_weighted_problem):
        assert solve(tiny_problem, method="gp+a").method == "gp+a"
        assert solve(tiny_problem, method="minlp").method == "minlp"
        weighted = solve(tiny_weighted_problem, method="minlp+g", exact_settings=FAST_EXACT)
        assert weighted.method == "minlp+g"

    def test_minlp_ignores_problem_beta(self, tiny_weighted_problem):
        outcome = solve(tiny_weighted_problem, method="minlp")
        assert outcome.succeeded
        # The reported solution's problem has beta = 0 (pure II objective).
        assert outcome.solution.problem.weights.beta == 0.0

    def test_unknown_method_rejected(self, tiny_problem):
        with pytest.raises(ValueError):
            solve(tiny_problem, method="simulated-annealing")

    def test_solver_for_returns_callable(self, tiny_problem):
        outcome = solver_for("gp+a")(tiny_problem)
        assert outcome.method == "gp+a"


class TestValidation:
    def test_validate_solution_report(self, alex16_problem):
        outcome = solve_gp_a(alex16_problem)
        report = validate_solution(outcome.solution)
        assert report.feasible
        assert bool(report) is True
        assert report.initiation_interval == pytest.approx(outcome.initiation_interval)

    def test_check_outcome_consistency(self, alex16_problem):
        outcome = solve_gp_a(alex16_problem)
        assert check_outcome_consistency(outcome) == []

    def test_compare_methods_flags_inverted_results(self, alex16_problem):
        gp_a = solve_gp_a(alex16_problem)
        exact = solve_exact_min_ii(alex16_problem)
        assert compare_methods(alex16_problem, {"gp+a": gp_a, "minlp": exact}) == []
        # Swapping the labels should trigger the consistency check.
        issues = compare_methods(alex16_problem, {"gp+a": exact, "minlp": gp_a})
        if gp_a.initiation_interval > exact.initiation_interval + 1e-6:
            assert issues
