"""MINLP+G against brute-force enumeration of every count grid.

On problems small enough to list every per-FPGA CU vector that fits, the
optimum of ``alpha * II + beta * max_k phi_k`` is the minimum over the
product of those lists.  The candidate-II decomposition must certify that
minimum exactly, on homogeneous and mixed fleets, whatever the weights.
The exact settings are the runtime table's (``max_nodes=3``), under which a
node-limited search would stop early.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core.exact import ExactSettings, solve_exact_weighted
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.core.solution import CAPACITY_TOLERANCE, AllocationSolution, SolveStatus
from repro.platform.presets import aws_f1, mixed_fleet
from repro.platform.resources import ResourceVector
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

RUNTIME_TABLE_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)

#: Grids above this many points are skipped (the enumeration is in memory).
MAX_GRIDS = 400_000


def fitting_vectors(problem: AllocationProblem, fpga: int) -> np.ndarray:
    """Every per-kernel CU vector one FPGA holds, shape (L, K)."""
    platform = problem.platform
    resource_limit = platform.fpga_resource_limits()[fpga]
    bandwidth_limit = platform.fpga_bandwidth_limits()[fpga]
    kernels = [problem.pipeline[name] for name in problem.kernel_names]

    def fits(counts) -> bool:
        usage = ResourceVector()
        bandwidth = 0.0
        for kernel, count in zip(kernels, counts):
            usage = usage + kernel.resources * count
            bandwidth += kernel.bandwidth * count
        return (
            not usage.exceeds(resource_limit, tolerance=CAPACITY_TOLERANCE)
            and bandwidth <= bandwidth_limit + CAPACITY_TOLERANCE
        )

    found = []

    def extend(prefix: list[int]) -> None:
        if len(prefix) == len(kernels):
            found.append(tuple(prefix))
            return
        count = 0
        while fits(prefix + [count] + [0] * (len(kernels) - len(prefix) - 1)):
            extend(prefix + [count])
            count += 1

    extend([])
    return np.array(found, dtype=np.int64).reshape(len(found), len(kernels))


def brute_force_minimum(problem: AllocationProblem) -> float | None:
    """The least objective over every feasible count grid (``None`` if none).

    Skips the example (Hypothesis ``assume``) when the grid is too large.
    """
    per_fpga = [fitting_vectors(problem, fpga) for fpga in range(problem.num_fpgas)]
    if np.prod([len(vectors) for vectors in per_fpga], dtype=float) > MAX_GRIDS:
        assume(False)
    index = np.array(list(itertools.product(*(range(len(v)) for v in per_fpga))))
    stacked = np.stack([vectors[index[:, f]] for f, vectors in enumerate(per_fpga)])  # (F, G, K)
    totals = stacked.sum(axis=0)
    feasible = totals.min(axis=1) >= 1
    if not feasible.any():
        return None
    wcet = np.array([problem.wcet[name] for name in problem.kernel_names])
    ii = (wcet / np.maximum(totals, 1)).max(axis=1)
    spreading = (stacked / (1.0 + stacked)).sum(axis=0).max(axis=1)
    goal = problem.weights.alpha * ii + problem.weights.beta * spreading
    return float(goal[feasible].min())


@st.composite
def tiny_problems(draw):
    num_kernels = draw(st.integers(2, 4))
    kernels = [
        Kernel(
            name=f"K{index}",
            resources=ResourceVector(
                bram=draw(st.floats(8.0, 45.0)), dsp=draw(st.floats(8.0, 45.0))
            ),
            bandwidth=draw(st.floats(0.0, 30.0)),
            wcet_ms=draw(st.floats(1.0, 40.0)),
        )
        for index in range(num_kernels)
    ]
    limit = draw(st.floats(50.0, 100.0))
    if draw(st.booleans()):
        platform = aws_f1(num_fpgas=draw(st.integers(1, 3)), resource_limit_percent=limit)
    else:
        num_large = draw(st.integers(1, 2))
        platform = mixed_fleet(num_large, 3 - num_large, resource_limit_percent=limit)
    beta = draw(st.floats(0.1, 20.0))
    return AllocationProblem(
        pipeline=Pipeline(name="tiny", kernels=kernels),
        platform=platform,
        weights=ObjectiveWeights(alpha=1.0, beta=beta),
    )


@settings(max_examples=60, deadline=None)
@given(problem=tiny_problems())
def test_certified_objective_equals_brute_force(problem):
    expected = brute_force_minimum(problem)
    outcome = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    if expected is None:
        assert outcome.solution is None
        return
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.details["gap"] <= RUNTIME_TABLE_SETTINGS.gap_tolerance
    assert outcome.solution.is_feasible()
    # Certified within the gap tolerance, and never below the true minimum.
    tolerance = RUNTIME_TABLE_SETTINGS.gap_tolerance * max(1.0, abs(expected))
    assert expected - 1e-9 <= outcome.objective <= expected + tolerance


@settings(max_examples=20, deadline=None)
@given(problem=tiny_problems())
def test_unseeded_search_reaches_the_same_optimum(problem):
    """Without the GP+A incumbent, and with no gap tolerance, the greedy pass
    and the split search alone still certify the optimum."""
    expected = brute_force_minimum(problem)
    outcome = solve_exact_weighted(
        problem, ExactSettings(max_nodes=3, seed_with_heuristic=False, gap_tolerance=0.0)
    )
    if expected is None:
        assert outcome.status is SolveStatus.INFEASIBLE
        return
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.details["seeded"] is False
    assert outcome.objective == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("beta", (0.1, 1.0, 20.0))
def test_tiny_pipeline_optimum(tiny_weighted_problem, beta):
    problem = tiny_weighted_problem.with_weights(ObjectiveWeights(alpha=1.0, beta=beta))
    expected = brute_force_minimum(problem)
    outcome = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    solution = AllocationSolution(problem=problem, counts=dict(outcome.solution.counts))
    assert solution.is_feasible()
    assert solution.objective == pytest.approx(expected, rel=1e-12)
