"""The split search and the candidate-II decomposition of MINLP+G.

Unit checks of :mod:`repro.minlp.split_search` (split lists, FPGA
symmetry, the node budget), of the candidates' bounds, and fixed optima of
the paper's case studies that the node-limited LP search of earlier
revisions certified only at 2,000 nodes, or not at all.
"""

from __future__ import annotations

import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exact import ExactSettings, _weighted_candidates, solve_exact_weighted
from repro.core.gp_step import solve_gp_step
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.core.solution import SolveStatus
from repro.minlp.secant import spreading_of_kernel
from repro.minlp.split_search import (
    SearchBudgetExhausted,
    SplitPacker,
    splits_below,
)
from repro.platform.presets import aws_f1
from repro.platform.resources import ResourceVector
from repro.reporting.experiments import case_study
from repro.workloads.kernel import Kernel
from repro.workloads.pipeline import Pipeline

RUNTIME_TABLE_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)


def every_split(total: int, part_cap: int, num_bins: int) -> set[tuple[int, ...]]:
    """Every split as a non-increasing tuple, by enumerating count vectors."""
    found = set()
    for vector in itertools.product(range(min(total, part_cap) + 1), repeat=num_bins):
        if sum(vector) == total:
            found.add(tuple(sorted((part for part in vector if part), reverse=True)))
    return found


@settings(max_examples=80, deadline=None)
@given(
    total=st.integers(1, 9),
    part_cap=st.integers(1, 9),
    num_bins=st.integers(1, 4),
    cap=st.one_of(st.just(math.inf), st.floats(0.4, 4.0)),
)
def test_splits_below_lists_every_split_under_the_cap_in_order(total, part_cap, num_bins, cap):
    listed = splits_below(total, part_cap, num_bins, cap)
    expected = {
        split
        for split in every_split(total, part_cap, num_bins)
        if spreading_of_kernel(split) < cap
    }
    assert {parts for _, parts in listed} == expected
    assert len(listed) == len(expected)
    spreads = [spreading for spreading, _ in listed]
    assert spreads == sorted(spreads)
    for spreading, parts in listed:
        assert spreading == pytest.approx(spreading_of_kernel(parts), rel=1e-12)


def test_split_lists_follow_a_rising_cap():
    """Candidates with different IIs leave one kernel total different caps;
    a larger cap after a smaller one still sees every split below it."""
    packer = SplitPacker(
        sizes=[(10.0,)], capacities=[(100.0,)] * 3, part_caps=[10], tolerance=1e-6, max_nodes=10
    )
    assert [parts for _, parts in packer.splits(0, 4, 1.0)] == [(4,)]
    assert [parts for _, parts in packer.splits(0, 4, 2.0)] == [
        parts for _, parts in splits_below(4, 10, 3, 2.0)
    ]
    assert [parts for _, parts in packer.splits(0, 4, 1.0)] == [(4,)]


def test_equal_room_fpgas_are_tried_once():
    """Four empty identical FPGAs: one placement per multiset of classes."""
    packer = SplitPacker(
        sizes=[(10.0,)], capacities=[(100.0,)] * 4, part_caps=[10], tolerance=1e-6, max_nodes=100
    )
    room = list(packer.capacities)
    assert len(list(packer._placements(room, 0, (3,)))) == 1
    assert len(list(packer._placements(room, 0, (2, 1)))) == 1
    room[2] = (50.0,)
    # Two classes now: a lone part goes to either; two distinct parts can
    # take the two classes in either order or both share the big class.
    assert len(list(packer._placements(room, 0, (3,)))) == 2
    assert len(list(packer._placements(room, 0, (2, 1)))) == 3
    assert len(list(packer._placements(room, 0, (2, 2)))) == 2


def test_search_raises_when_the_budget_runs_out():
    packer = SplitPacker(
        sizes=[(30.0,), (30.0,), (30.0,)],
        capacities=[(50.0,)] * 2,
        part_caps=[1, 1, 1],
        tolerance=1e-6,
        max_nodes=1,
    )
    with pytest.raises(SearchBudgetExhausted):
        packer.search([1, 1, 1], math.inf, set())


def test_search_proves_infeasibility():
    packer = SplitPacker(
        sizes=[(30.0,), (30.0,), (30.0,)],
        capacities=[(50.0,)] * 2,
        part_caps=[1, 1, 1],
        tolerance=1e-6,
        max_nodes=1000,
    )
    assert packer.search([1, 1, 1], math.inf, set()) is None
    assert packer.greedy([1, 1, 1], math.inf) is None


@pytest.mark.parametrize(
    ("case", "objective"), [("alex-16", 1.9233), ("alex-32", 13.08), ("vgg-16", 56.95)]
)
def test_case_study_optima_at_70_percent(case, objective):
    outcome = solve_exact_weighted(case_study(case, 70.0), RUNTIME_TABLE_SETTINGS)
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.details["gap"] == 0.0
    assert outcome.solution.is_feasible()
    assert outcome.objective == pytest.approx(objective, abs=5e-5)
    assert outcome.objective <= outcome.details["heuristic_objective"]


@pytest.mark.parametrize("case", ("alex-16", "alex-32", "vgg-16"))
def test_candidate_bounds_use_the_least_spreading_splits(case):
    """Each candidate's bound is ``alpha * II + beta * max_k`` of the least
    spreading over every split of its total; candidates come sorted by it,
    with distinct totals, and none bounds above the certified optimum."""
    problem = case_study(case, 70.0)
    arrays = problem.arrays()
    weights = problem.weights
    candidates = _weighted_candidates(problem, solve_gp_step(problem).ii_hat, weights.beta)
    for candidate in candidates:
        least = [
            min(
                spreading
                for spreading, _ in splits_below(total, max(caps), problem.num_fpgas, math.inf)
            )
            for total, caps in zip(candidate.totals, arrays.fpga_max_cus)
        ]
        ii = max(wcet / total for wcet, total in zip(arrays.wcet.tolist(), candidate.totals))
        assert candidate.ii == pytest.approx(ii, rel=1e-12)
        assert candidate.bound == pytest.approx(
            weights.alpha * ii + weights.beta * max(least), rel=1e-12
        )
    bounds = [candidate.bound for candidate in candidates]
    assert bounds == sorted(bounds)
    assert len({candidate.totals for candidate in candidates}) == len(candidates)
    outcome = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    assert bounds[0] <= outcome.objective


def test_exhausted_budget_is_feasible_with_an_honest_gap():
    problem = case_study("alex-16", 70.0)
    certified = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    cut = solve_exact_weighted(problem, ExactSettings(max_nodes=3, packer_max_nodes=1))
    assert cut.status is SolveStatus.FEASIBLE
    assert cut.nodes_explored == 1
    assert cut.counters["split_search_nodes"] == 1
    assert cut.lower_bound <= certified.objective <= cut.objective
    assert cut.details["gap"] == pytest.approx(
        (cut.objective - cut.lower_bound) / cut.objective
    )
    assert cut.details["gap"] > 0


def test_search_ignores_the_retired_node_and_time_limits():
    problem = case_study("alex-32", 75.0)
    answers = {
        repr(solve_exact_weighted(problem, settings).solution.counts)
        for settings in (
            ExactSettings(max_nodes=1),
            ExactSettings(max_nodes=2000, symmetry_breaking=False),
            ExactSettings(time_limit_seconds=1e-9),
        )
    }
    assert len(answers) == 1


def test_infeasible_platform_is_reported():
    problem = case_study("alex-32", 20.0).with_weights(ObjectiveWeights(alpha=1.0, beta=1.0))
    outcome = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    assert outcome.status is SolveStatus.INFEASIBLE
    assert outcome.solution is None


@pytest.mark.filterwarnings("error")
def test_kernel_that_fits_no_fpga_is_infeasible_without_warnings():
    """The relaxed GP step spreads a kernel over two FPGAs, but no single
    FPGA holds one of its CUs: every candidate's bound is infinite."""
    kernels = [
        Kernel("wide", ResourceVector(bram=60.0, dsp=10.0), bandwidth=1.0, wcet_ms=10.0),
        Kernel("small", ResourceVector(bram=10.0, dsp=10.0), bandwidth=1.0, wcet_ms=5.0),
    ]
    problem = AllocationProblem(
        pipeline=Pipeline(name="wide", kernels=kernels),
        platform=aws_f1(num_fpgas=2, resource_limit_percent=50.0),
        weights=ObjectiveWeights(alpha=1.0, beta=1.0),
    )
    outcome = solve_exact_weighted(problem, RUNTIME_TABLE_SETTINGS)
    assert outcome.status is SolveStatus.INFEASIBLE
    assert outcome.counters["candidates_considered"] == 0
