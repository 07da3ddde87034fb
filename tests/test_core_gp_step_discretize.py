"""Tests for the GP step (Sec. 3.2.1) and the discretisation step (Sec. 3.2.2)."""

import math
import tracemalloc

import pytest
from discretize_oracle import oracle_caps, oracle_discretize
from hypothesis import HealthCheck, assume, event, given, settings, strategies as st
from minmax_oracle import lp_min_max_ii

from repro.core.discretize import DiscretizationError, discretize_counts, round_counts
from repro.core.gp_step import solve_gp_step
from repro.core.problem import AllocationProblem
from repro.gp.errors import InfeasibleError
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.reporting.experiments import case_study
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline
from repro.workloads.synthetic import random_pipeline


class TestGPStep:
    def test_counts_satisfy_aggregate_constraints(self, alex16_problem):
        result = solve_gp_step(alex16_problem)
        assert result.ii_hat > 0
        for dimension in alex16_problem.capacity_dimensions():
            usage = dimension.usage(result.counts_hat)
            assert usage <= dimension.capacity * alex16_problem.num_fpgas + 1e-6

    def test_counts_cover_the_ii(self, alex16_problem):
        result = solve_gp_step(alex16_problem)
        for name, count in result.counts_hat.items():
            assert count >= 1.0 - 1e-9
            assert alex16_problem.wcet[name] / count <= result.ii_hat * (1 + 1e-9)

    def test_backends_agree(self):
        """Bisection against the LP oracle over the case-study sweep
        (alex-16, alex-32 and vgg-16 at 30-92.5 %), infeasibility included."""
        compared = 0
        for case in ("alex-16", "alex-32", "vgg-16"):
            for step in range(26):
                problem = case_study(case, resource_limit_percent=30.0 + 2.5 * step)
                arrays = problem.arrays()
                expected = lp_min_max_ii(arrays.wcet, arrays.weights, arrays.aggregate_capacity)
                if expected is None:
                    with pytest.raises(InfeasibleError):
                        solve_gp_step(problem)
                    continue
                assert solve_gp_step(problem).ii_hat == pytest.approx(expected, rel=1e-7)
                compared += 1
        assert compared >= 70

    def test_relaxing_constraint_never_hurts(self, alex16_problem):
        tight = solve_gp_step(alex16_problem.with_resource_constraint(55.0))
        loose = solve_gp_step(alex16_problem.with_resource_constraint(85.0))
        assert loose.ii_hat <= tight.ii_hat + 1e-9

    def test_more_fpgas_never_hurt(self, vgg_problem):
        few = solve_gp_step(
            AllocationProblem(
                pipeline=vgg_problem.pipeline,
                platform=vgg_problem.platform.with_num_fpgas(4),
            )
        )
        many = solve_gp_step(vgg_problem)
        assert many.ii_hat <= few.ii_hat + 1e-9

    def test_per_fpga_counts(self, alex16_problem):
        result = solve_gp_step(alex16_problem)
        per_fpga = result.per_fpga_counts(alex16_problem.num_fpgas)
        for name, value in per_fpga.items():
            assert value == pytest.approx(result.counts_hat[name] / 2)

    def test_infeasible_problem_raises(self, tiny_pipeline):
        problem = AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=1, resource_limit_percent=30.0),
        )
        with pytest.raises(InfeasibleError):
            solve_gp_step(problem)

    def test_minmax_problem_respects_kernel_max_cus(self):
        pipeline = Pipeline(
            name="capped",
            kernels=[
                Kernel("A", ResourceVector(dsp=1.0), bandwidth=0.1, wcet_ms=10.0, max_cus=2),
                Kernel("B", ResourceVector(dsp=1.0), bandwidth=0.1, wcet_ms=1.0),
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=2))
        result = solve_gp_step(problem)
        assert result.counts_hat["A"] <= 2.0 + 1e-9
        assert result.ii_hat == pytest.approx(5.0, rel=1e-6)


class TestDiscretization:
    def test_integer_counts_are_feasible_and_cover_gp(self, alex16_problem):
        gp = solve_gp_step(alex16_problem)
        result = discretize_counts(alex16_problem)
        assert all(isinstance(v, int) and v >= 1 for v in result.counts.values())
        for dimension in alex16_problem.capacity_dimensions():
            usage = dimension.usage(result.counts)
            assert usage <= dimension.capacity * alex16_problem.num_fpgas + 1e-6
        # Integer optimum can never beat the continuous relaxation.
        assert result.ii >= gp.ii_hat - 1e-9

    def test_discretization_matches_exact_min_ii_bound(self, alex16_problem):
        """The discretised II equals the best integer II under aggregate caps."""
        result = discretize_counts(alex16_problem)
        # Brute-force check on the bottleneck kernel: reducing any kernel by one
        # CU (where possible) must not produce a better feasible II.
        assert result.proven_optimal

    def test_rounding_baseline_not_better_than_bb(self, alex16_problem):
        gp = solve_gp_step(alex16_problem)
        bb = discretize_counts(alex16_problem)
        rounded = round_counts(alex16_problem, gp.counts_hat)
        assert rounded.ii >= bb.ii - 1e-9

    def test_rounding_respects_aggregate_capacity(self, vgg_problem):
        gp = solve_gp_step(vgg_problem)
        rounded = round_counts(vgg_problem, gp.counts_hat)
        for dimension in vgg_problem.capacity_dimensions():
            usage = dimension.usage(rounded.counts)
            assert usage <= dimension.capacity * vgg_problem.num_fpgas + 1e-6

    def test_impossible_discretization_raises(self, tiny_pipeline):
        problem = AllocationProblem(
            pipeline=tiny_pipeline,
            platform=aws_f1(num_fpgas=1, resource_limit_percent=30.0),
        )
        with pytest.raises(DiscretizationError):
            discretize_counts(problem)

    def test_tiny_problem_exact_value(self, tiny_problem):
        """Hand-checkable instance: DSP caps the totals at 160 %."""
        result = discretize_counts(tiny_problem)
        ii = result.ii
        assert ii == pytest.approx(max(10.0 / result.counts["A"],
                                       4.0 / result.counts["B"],
                                       12.0 / result.counts["C"]))
        dsp_usage = 20 * result.counts["A"] + 10 * result.counts["B"] + 30 * result.counts["C"]
        assert dsp_usage <= 160.0 + 1e-9

    def test_counts_respect_the_per_kernel_caps(self):
        """``max_total_cus("K1")`` is 0 here, so ``K1`` may get one CU only.

        Seeding a branch and bound with ``floor(N̂)`` returns ``K1 = 2``
        (II 25.58) as proven optimal after 0 nodes; the capped optimum is
        ``K1 = 1`` with II 33.747.
        """
        problem = AllocationProblem(random_pipeline(seed=43), aws_f1(8, 36.85))
        assert problem.max_total_cus("K1") == 0
        result = discretize_counts(problem, use_cache=False)
        assert result.counts["K1"] == 1
        assert result.ii == pytest.approx(33.747, abs=1e-3)
        for name, count in result.counts.items():
            assert count <= max(1, problem.max_total_cus(name))

    @pytest.mark.parametrize(
        "kernels",
        [
            # A kernel that uses nothing has ``max_total_cus`` = 10**9 per FPGA.
            [
                Kernel("FREE", ResourceVector.zeros(), bandwidth=0.0, wcet_ms=5.0),
                Kernel("A", ResourceVector(bram=10.0, dsp=20.0), bandwidth=5.0, wcet_ms=10.0),
            ],
            [Kernel("FREE", ResourceVector.zeros(), bandwidth=0.0, wcet_ms=5.0)],
            # Tiny demands: caps of ~10**8 CUs that the optimum nearly reaches.
            [
                Kernel(f"T{i}", ResourceVector(bram=1e-6, dsp=1e-6 * (i + 1)),
                       bandwidth=1e-6, wcet_ms=3.0 + i)
                for i in range(4)
            ],
        ],
        ids=["zero-demand-next-to-normal", "zero-demand-alone", "tiny-demands"],
    )
    def test_huge_caps_cost_neither_memory_nor_optimality(self, kernels):
        """The search must not list all ``sum(caps)`` candidate IIs."""
        problem = AllocationProblem(Pipeline(name="huge-caps", kernels=kernels), aws_f1(2, 70.0))
        assert sum(problem.max_total_cus(name) for name in problem.kernel_names) >= 10**8
        tracemalloc.start()
        try:
            result = discretize_counts(problem, use_cache=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20
        _assert_optimal(problem, result)


def _assert_optimal(problem: AllocationProblem, result) -> None:
    """Feasible, within the caps, exact II, and no vector within the caps does better.

    ``better`` holds the fewest CUs that beat ``II`` on each kernel; since
    every weight is >= 0, the II is optimal when that vector does not fit.
    """
    arrays = problem.arrays()
    caps = oracle_caps(problem)
    vector = arrays.vector(result.counts)
    assert arrays.aggregate_feasible(vector, problem.num_fpgas)
    assert all(1 <= result.counts[name] <= caps[name] for name in caps)
    assert result.ii == arrays.achieved_ii(vector)
    better = {}
    for name in caps:
        wcet = problem.wcet[name]
        # ``floor(WCET / II) + 1``, robust to the rounding of the division.
        start = max(1, math.floor(wcet / result.ii))
        better[name] = next(n for n in range(start, start + 3) if wcet / n < result.ii)
    assert any(better[name] > caps[name] for name in caps) or not arrays.aggregate_feasible(
        arrays.vector(better), problem.num_fpgas
    )
    # Componentwise-minimal: one CU fewer on any kernel raises the II.
    for name, count in result.counts.items():
        if count > 1:
            assert problem.wcet[name] / (count - 1) > result.ii


# --------------------------------------------------------------------------- #
# Differential: the threshold search against the branch-and-bound oracle
# --------------------------------------------------------------------------- #
def _check_against_oracle(problem: AllocationProblem) -> None:
    try:
        gp = solve_gp_step(problem)
    except InfeasibleError:
        assume(False)
    result = discretize_counts(problem, use_cache=False)
    _assert_optimal(problem, result)
    assert result.ii >= gp.ii_hat * (1 - 1e-9)
    caps = oracle_caps(problem)
    oracle = oracle_discretize(problem, gp.counts_hat)
    if any(oracle.counts[name] > caps[name] for name in caps):
        event("oracle exceeds a cap")
        return
    # A budget-truncated oracle may stop above the optimum, never below it.
    assert result.ii <= oracle.ii * (1 + 1e-12)
    if oracle.proven_optimal:
        event("oracle within the caps, proven optimal")
        assert result.ii == pytest.approx(oracle.ii, rel=1e-12)
    else:
        event("oracle within the caps, budget-limited")


_DIFFERENTIAL = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much]
)


@_DIFFERENTIAL
@given(
    case=st.sampled_from(("alex-16", "alex-32", "vgg-16")),
    resource=st.floats(min_value=30.0, max_value=100.0),
)
def test_threshold_search_matches_oracle_on_case_studies(case, resource):
    _check_against_oracle(case_study(case, resource_limit_percent=resource))


@_DIFFERENTIAL
@given(
    seed=st.integers(min_value=0, max_value=500),
    num_fpgas=st.sampled_from((1, 2, 4, 8)),
    resource=st.floats(min_value=30.0, max_value=100.0),
)
def test_threshold_search_matches_oracle_on_random_pipelines(seed, num_fpgas, resource):
    _check_against_oracle(
        AllocationProblem(random_pipeline(seed=seed), aws_f1(num_fpgas, resource))
    )
