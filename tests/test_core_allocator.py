"""Tests for the greedy allocator (Algorithm 1) and its ablation baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import (
    AllocatorSettings,
    GreedyAllocator,
    allocate_cus,
    first_fit_decreasing_allocate,
)
from repro.core.problem import AllocationProblem
from repro.core.solution import AllocationSolution
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline


def solution_of(problem, result) -> AllocationSolution:
    return AllocationSolution(problem=problem, counts=dict(result.counts))


class TestAllocatorBasics:
    def test_simple_allocation_succeeds(self, tiny_problem):
        result = allocate_cus(tiny_problem, {"A": 2, "B": 1, "C": 2})
        assert result.success
        assert not result.unallocated
        solution = solution_of(tiny_problem, result)
        assert solution.is_feasible()
        assert solution.totals() == {"A": 2, "B": 1, "C": 2}

    def test_missing_or_invalid_totals_rejected(self, tiny_problem):
        with pytest.raises(KeyError):
            allocate_cus(tiny_problem, {"A": 1, "B": 1})
        with pytest.raises(ValueError):
            allocate_cus(tiny_problem, {"A": 1, "B": 0, "C": 1})

    def test_allocation_respects_per_fpga_capacity(self, alex16_problem):
        from repro.core.discretize import discretize_counts

        totals = discretize_counts(alex16_problem).counts
        result = allocate_cus(alex16_problem, totals)
        solution = solution_of(alex16_problem, result)
        assert solution.is_feasible()

    def test_consolidation_bias(self):
        """Small kernels that fit together should land on one FPGA."""
        pipeline = Pipeline(
            name="small",
            kernels=[
                Kernel("A", ResourceVector(dsp=10.0), bandwidth=1.0, wcet_ms=4.0),
                Kernel("B", ResourceVector(dsp=10.0), bandwidth=1.0, wcet_ms=4.0),
                Kernel("C", ResourceVector(dsp=10.0), bandwidth=1.0, wcet_ms=4.0),
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=4, resource_limit_percent=80.0))
        result = allocate_cus(problem, {"A": 1, "B": 1, "C": 1})
        solution = solution_of(problem, result)
        assert len(solution.used_fpgas()) == 1
        assert solution.spreading == pytest.approx(0.5)

    def test_kernel_larger_than_one_fpga_is_split(self):
        """Phase 1: a kernel whose CUs exceed one FPGA spreads over empty FPGAs."""
        pipeline = Pipeline(
            name="big",
            kernels=[Kernel("BIG", ResourceVector(dsp=30.0), bandwidth=1.0, wcet_ms=30.0)],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=3, resource_limit_percent=70.0))
        result = allocate_cus(problem, {"BIG": 6})
        assert result.success
        solution = solution_of(problem, result)
        assert solution.total_cus("BIG") == 6
        assert len(solution.used_fpgas()) == 3
        assert solution.is_feasible()

    def test_partial_allocation_keeps_every_kernel_alive(self):
        """When not everything fits, each kernel still gets at least one CU."""
        pipeline = Pipeline(
            name="tight",
            kernels=[
                Kernel("A", ResourceVector(dsp=30.0), bandwidth=1.0, wcet_ms=30.0),
                Kernel("B", ResourceVector(dsp=30.0), bandwidth=1.0, wcet_ms=30.0),
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=1, resource_limit_percent=70.0))
        result = allocate_cus(problem, {"A": 2, "B": 2})
        assert not result.success
        placed = {name: sum(values) for name, values in result.counts.items()}
        assert placed["A"] >= 1 and placed["B"] >= 1
        assert sum(result.unallocated.values()) == 4 - sum(placed.values())

    def test_t_relaxation_allows_slight_overrun(self):
        """With T > 0 the allocator may exceed R by up to T points and succeed."""
        pipeline = Pipeline(
            name="barely",
            kernels=[
                Kernel("A", ResourceVector(dsp=36.0), bandwidth=1.0, wcet_ms=10.0),
                Kernel("B", ResourceVector(dsp=36.0), bandwidth=1.0, wcet_ms=10.0),
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=1, resource_limit_percent=70.0))
        strict = allocate_cus(problem, {"A": 1, "B": 1}, AllocatorSettings(t_percent=0.0))
        relaxed = allocate_cus(problem, {"A": 1, "B": 1}, AllocatorSettings(t_percent=5.0, delta_percent=1.0))
        assert not strict.success
        assert relaxed.success
        assert relaxed.constraint_relaxation > 0

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            AllocatorSettings(t_percent=-1.0)
        with pytest.raises(ValueError):
            AllocatorSettings(delta_percent=0.0)

    def test_criticality_rules_produce_valid_allocations(self, alex16_problem):
        totals = {"CONV1": 4, "POOL1": 2, "NORM1": 1, "CONV2": 4,
                  "NORM2": 1, "CONV3": 5, "CONV4": 4, "CONV5": 3}
        for rule in ("ii-impact", "resource", "wcet"):
            settings = AllocatorSettings(criticality=rule, portfolio=False)
            result = allocate_cus(alex16_problem, totals, settings)
            solution = solution_of(alex16_problem, result)
            for f in range(alex16_problem.num_fpgas):
                usage = solution.fpga_resource_usage(f)
                assert usage.fits_within(alex16_problem.platform.resource_limit)

    def test_portfolio_at_least_as_good_as_single_rule(self, alex16_problem):
        totals = {"CONV1": 5, "POOL1": 2, "NORM1": 1, "CONV2": 4,
                  "NORM2": 1, "CONV3": 6, "CONV4": 4, "CONV5": 3}
        single = allocate_cus(alex16_problem, totals, AllocatorSettings(portfolio=False, polish=False))
        portfolio = allocate_cus(alex16_problem, totals, AllocatorSettings(portfolio=True, polish=False))
        placed_single = sum(sum(v) for v in single.counts.values())
        placed_portfolio = sum(sum(v) for v in portfolio.counts.values())
        ii = lambda result: max(
            alex16_problem.wcet[name] / max(1, sum(values))
            for name, values in result.counts.items()
        )
        assert (portfolio.success, -placed_portfolio, ii(portfolio)) <= (
            True, -placed_single, ii(single)) or portfolio.success >= single.success

    def test_polish_improves_or_matches_partial_allocations(self, vgg_problem):
        from repro.core.discretize import discretize_counts

        problem = vgg_problem.with_resource_constraint(75.0)
        totals = discretize_counts(problem).counts
        raw = allocate_cus(problem, totals, AllocatorSettings(polish=False))
        polished = allocate_cus(problem, totals, AllocatorSettings(polish=True))

        def achieved_ii(result):
            return max(
                problem.wcet[name] / max(1, sum(values)) for name, values in result.counts.items()
            )

        assert achieved_ii(polished) <= achieved_ii(raw) + 1e-9


class TestFirstFitBaseline:
    def test_ffd_allocates_simple_case(self, tiny_problem):
        result = first_fit_decreasing_allocate(tiny_problem, {"A": 2, "B": 1, "C": 2})
        assert result.success
        solution = solution_of(tiny_problem, result)
        assert solution.is_feasible()

    def test_ffd_spreads_more_than_algorithm1(self):
        pipeline = Pipeline(
            name="spread",
            kernels=[
                Kernel("A", ResourceVector(dsp=10.0), bandwidth=1.0, wcet_ms=4.0),
                Kernel("B", ResourceVector(dsp=10.0), bandwidth=1.0, wcet_ms=4.0),
            ],
        )
        problem = AllocationProblem(pipeline=pipeline, platform=aws_f1(num_fpgas=2, resource_limit_percent=80.0))
        greedy = allocate_cus(problem, {"A": 2, "B": 2})
        ffd = first_fit_decreasing_allocate(problem, {"A": 2, "B": 2})
        greedy_solution = solution_of(problem, greedy)
        ffd_solution = solution_of(problem, ffd)
        assert greedy_solution.spreading <= ffd_solution.spreading + 1e-9


def reference_ffd(problem, totals):
    """Per-item first-fit-decreasing: the pre-vectorization reference.

    Places every CU one at a time into the first FPGA with room, coverage
    pass first -- the semantics the batched NumPy version must reproduce
    byte-for-byte.
    """
    from repro.core.allocator import _TOL

    arrays = problem.arrays()
    unit = np.ascontiguousarray(arrays.weights.T)
    slack = np.ascontiguousarray(arrays.fpga_capacity.T).copy()
    counts = np.zeros((arrays.num_kernels, problem.num_fpgas), dtype=np.int64)
    remaining = np.asarray([int(totals[name]) for name in arrays.names], dtype=np.int64)
    resource_columns = [
        d for d in range(arrays.num_dimensions) if d != arrays.bandwidth_row
    ]
    if resource_columns:
        footprint = unit[:, resource_columns].max(axis=1)
    else:
        footprint = np.zeros(arrays.num_kernels)
    order = sorted(range(arrays.num_kernels), key=lambda k: footprint[k], reverse=True)

    def place_one(kernel):
        fits = np.all(unit[kernel] <= slack + _TOL, axis=1)
        hosts = np.nonzero(fits)[0]
        if hosts.size == 0:
            return False
        fpga = int(hosts[0])
        slack[fpga] -= unit[kernel]
        counts[kernel, fpga] += 1
        remaining[kernel] -= 1
        return True

    for kernel in order:
        if remaining[kernel] > 0:
            place_one(kernel)
    for kernel in order:
        while remaining[kernel] > 0 and place_one(kernel):
            pass
    return counts, remaining


@st.composite
def ffd_problems(draw):
    # Demands on a 1/8 grid: exactly representable in binary, so the
    # reference's repeated subtraction and the batched floor division see
    # the same arithmetic and parity is genuinely byte-identical.
    grid = st.integers(min_value=0, max_value=160).map(lambda n: n / 8.0)
    num_kernels = draw(st.integers(min_value=1, max_value=5))
    kernels = []
    for index in range(num_kernels):
        bram = draw(grid)
        dsp = draw(grid)
        bandwidth = draw(grid)
        if bram == 0.0 and dsp == 0.0:
            bram = 0.125  # a CU must demand something on at least one kind
        kernels.append(
            Kernel(
                f"k{index}",
                ResourceVector(bram=bram, dsp=dsp),
                bandwidth=bandwidth,
                wcet_ms=1.0,
            )
        )
    num_fpgas = draw(st.integers(min_value=1, max_value=4))
    limit = draw(st.sampled_from([40.0, 62.5, 70.0, 87.5, 100.0]))
    problem = AllocationProblem(
        pipeline=Pipeline(name="ffd-prop", kernels=kernels),
        platform=aws_f1(num_fpgas=num_fpgas, resource_limit_percent=limit),
    )
    totals = {
        kernel.name: draw(st.integers(min_value=1, max_value=6)) for kernel in kernels
    }
    return problem, totals


class TestFFDBatchParity:
    @settings(max_examples=150, deadline=None)
    @given(ffd_problems())
    def test_batched_ffd_matches_per_item_reference(self, case):
        problem, totals = case
        result = first_fit_decreasing_allocate(problem, totals)
        reference_counts, reference_remaining = reference_ffd(problem, totals)
        arrays = problem.arrays()
        for index, name in enumerate(arrays.names):
            assert tuple(result.counts[name]) == tuple(reference_counts[index]), name
        assert result.success == (not reference_remaining.any())

    def test_batched_ffd_matches_reference_on_case_study(self, alex16_problem):
        problem = alex16_problem.with_resource_constraint(70.0)
        totals = {name: 2 for name in problem.kernel_names}
        result = first_fit_decreasing_allocate(problem, totals)
        reference_counts, _ = reference_ffd(problem, totals)
        arrays = problem.arrays()
        for index, name in enumerate(arrays.names):
            assert tuple(result.counts[name]) == tuple(reference_counts[index])
