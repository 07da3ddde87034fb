"""End-to-end solves on heterogeneous platforms, across every layer.

The acceptance contract of the heterogeneity refactor: a platform with two
or more device classes solves through both the heuristic (``gp+a``) and the
exact (``minlp``/``minlp+g``) paths with ``validate`` passing, and the
allocator and packers respect per-FPGA caps.
"""

from __future__ import annotations

import pytest

from repro.core.allocator import GreedyAllocator, first_fit_decreasing_allocate
from repro.core.exact import ExactSettings, solve_exact_weighted
from repro.core.problem import AllocationProblem
from repro.core.solvers import solve
from repro.core.objective import ObjectiveWeights
from repro.core.validate import validate_solution
from repro.platform.multi_fpga import DeviceClass, MultiFPGAPlatform
from repro.platform.presets import (
    XCKU115,
    XCVU9P,
    derated_die_platform,
    mixed_fleet,
)
from repro.platform.resources import ResourceVector
from repro.workloads.alexnet import alexnet_fx16
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline


@pytest.fixture
def mixed_problem() -> AllocationProblem:
    return AllocationProblem(
        pipeline=alexnet_fx16(), platform=mixed_fleet(2, 2, resource_limit_percent=70.0)
    )


@pytest.fixture
def derated_problem() -> AllocationProblem:
    return AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=derated_die_platform(2, 2, resource_limit_percent=70.0),
    )


@pytest.mark.parametrize("method", ["gp+a", "minlp", "minlp+g"])
def test_mixed_fleet_solves_and_validates(mixed_problem, method):
    outcome = solve(mixed_problem, method=method)
    assert outcome.succeeded
    report = validate_solution(outcome.solution)
    assert report.feasible, report.violations


@pytest.mark.parametrize("method", ["gp+a", "minlp", "minlp+g"])
def test_derated_die_solves_and_validates(derated_problem, method):
    outcome = solve(derated_problem, method=method)
    assert outcome.succeeded
    report = validate_solution(outcome.solution)
    assert report.feasible, report.violations


def test_exact_never_worse_than_heuristic_on_mixed_fleet(mixed_problem):
    heuristic = solve(mixed_problem, method="gp+a")
    exact = solve(mixed_problem, method="minlp")
    assert exact.initiation_interval <= heuristic.initiation_interval + 1e-9


def test_weighted_exact_certifies_on_mixed_fleet(mixed_problem):
    weighted = mixed_problem.with_weights(ObjectiveWeights(alpha=1.0, beta=1.0))
    outcome = solve_exact_weighted(weighted, ExactSettings(max_nodes=3))
    assert outcome.status.value == "optimal"
    assert outcome.solution.is_feasible()
    assert outcome.objective <= outcome.details["heuristic_objective"]


def test_small_class_capacity_binds():
    """A fleet whose small FPGAs cannot host the big kernel still solves,
    placing that kernel's CUs only on the large class."""
    pipeline = Pipeline(
        name="binding",
        kernels=[
            Kernel("big", ResourceVector(bram=50.0), bandwidth=1.0, wcet_ms=8.0),
            Kernel("small", ResourceVector(bram=5.0), bandwidth=1.0, wcet_ms=2.0),
        ],
    )
    platform = MultiFPGAPlatform.from_classes(
        (
            DeviceClass(XCVU9P, 1, ResourceVector.full(60.0), 100.0),
            DeviceClass(XCKU115, 2, ResourceVector.full(20.0), 100.0),
        )
    )
    problem = AllocationProblem(pipeline=pipeline, platform=platform)
    for method in ("gp+a", "minlp"):
        outcome = solve(problem, method=method)
        assert outcome.succeeded
        assert validate_solution(outcome.solution).feasible
        counts = outcome.solution.counts["big"]
        assert counts[1] == counts[2] == 0  # the 20 %-cap FPGAs cannot host it


def test_allocator_respects_per_fpga_caps(mixed_problem):
    allocator = GreedyAllocator(mixed_problem)
    totals = {name: 2 for name in mixed_problem.kernel_names}
    result = allocator.allocate(totals)
    if result.success:
        solution_counts = result.counts
        resource_limits = mixed_problem.platform.fpga_resource_limits()
        bandwidth_limits = mixed_problem.platform.fpga_bandwidth_limits()
        for fpga in range(mixed_problem.num_fpgas):
            usage = {kind: 0.0 for kind in ("bram", "dsp", "lut", "ff")}
            bandwidth = 0.0
            for name in mixed_problem.kernel_names:
                count = solution_counts[name][fpga]
                resources = mixed_problem.resource_of(name)
                for kind in usage:
                    usage[kind] += resources[kind] * count
                bandwidth += mixed_problem.bandwidth_of(name) * count
            for kind, used in usage.items():
                assert used <= resource_limits[fpga][kind] + 1e-6
            assert bandwidth <= bandwidth_limits[fpga] + 1e-6


def test_ffd_baseline_respects_per_fpga_caps(mixed_problem):
    totals = {name: 1 for name in mixed_problem.kernel_names}
    result = first_fit_decreasing_allocate(mixed_problem, totals)
    assert result.success
    from repro.core.solution import AllocationSolution

    solution = AllocationSolution(problem=mixed_problem, counts=dict(result.counts))
    assert solution.is_feasible()


def test_phase1_split_prefers_biggest_empty_fpga():
    """A kernel too large for any single FPGA splits onto the largest first."""
    pipeline = Pipeline(
        name="split",
        kernels=[Kernel("wide", ResourceVector(bram=10.0), bandwidth=0.0, wcet_ms=4.0)],
    )
    platform = MultiFPGAPlatform.from_classes(
        (
            DeviceClass(XCVU9P, 1, ResourceVector.full(30.0), 100.0),
            DeviceClass(XCVU9P, 1, ResourceVector.full(90.0), 100.0),
        )
    )
    problem = AllocationProblem(pipeline=pipeline, platform=platform)
    result = GreedyAllocator(problem).allocate({"wide": 12})  # 120 % of one device
    assert result.success
    counts = result.counts["wide"]
    assert counts[1] >= counts[0]  # the big FPGA hosts the bulk
