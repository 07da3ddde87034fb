"""The exact min-II solver under a starved packer: honest, never worse than
its GP+A seed.

``minlp`` walks down the candidate II list from the GP+A incumbent and stops
at the first candidate whose packing fails.  A failure on an exhausted node
budget proves nothing, so the answer is ``feasible`` -- never ``optimal`` --
with a lower bound no allocation beats.  The bisection it replaced treated
such a probe as infeasible and still called its answer optimal.

The scenario needs the plain *branching* search with a small budget (2,000
nodes): on alex-16 x 4 FPGAs at R = 70-80 % it runs out on probes that the
bin-completion search proves outright.
"""

from __future__ import annotations

import pytest

from repro.core.exact import ExactSettings, solve_exact_min_ii
from repro.core.heuristic import HeuristicSettings, solve_gp_a
from repro.core.problem import AllocationProblem
from repro.core.solution import SolveStatus
from repro.minlp.binpacking import VectorBinPacker, shared_packing_memos_clear
from repro.platform.presets import aws_f1
from repro.workloads.alexnet import alexnet_fx16

STARVED = ExactSettings(packer_max_nodes=2_000)

#: The packer's exact search: bin completion, then the branching search as
#: assignment extractor.
_COMPLETION_SEARCH = VectorBinPacker._exact_search


def _alex16_on_4_fpgas(resource_percent: float) -> AllocationProblem:
    return AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=aws_f1(num_fpgas=4, resource_limit_percent=resource_percent),
    )


@pytest.fixture(autouse=True)
def _branching_search_cold_memos(monkeypatch):
    # Shared memos from other tests could answer the starved probes with a
    # result a generous budget proved; clear them around every test.
    monkeypatch.setattr(
        VectorBinPacker, "_exact_search", VectorBinPacker._exact_search_branching
    )
    shared_packing_memos_clear()
    yield
    shared_packing_memos_clear()


@pytest.mark.parametrize("resource", (70.0, 75.0, 80.0))
def test_starved_packer_answer_is_feasible_not_optimal(resource):
    problem = _alex16_on_4_fpgas(resource)
    outcome = solve_exact_min_ii(problem, STARVED)
    heuristic = solve_gp_a(problem, HeuristicSettings())
    assert outcome.status is SolveStatus.FEASIBLE
    assert outcome.solution is not None and outcome.solution.is_feasible()
    assert outcome.lower_bound <= outcome.objective
    assert outcome.details["gap"] > 0.0
    assert heuristic.succeeded
    assert outcome.objective <= heuristic.objective + 1e-12


def test_completion_search_proves_the_optimum():
    """With bin completion the same budget decides every probe: the walk
    ends on a proven failure and certifies an optimum below GP+A's."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VectorBinPacker, "_exact_search", _COMPLETION_SEARCH)
        problem = _alex16_on_4_fpgas(70.0)
        outcome = solve_exact_min_ii(problem, STARVED)
    heuristic = solve_gp_a(problem, HeuristicSettings())
    assert outcome.status is SolveStatus.OPTIMAL
    assert outcome.solution is not None and outcome.solution.is_feasible()
    assert outcome.initiation_interval == pytest.approx(0.5871428571428572, rel=1e-12)
    assert outcome.lower_bound == outcome.objective
    assert outcome.objective < heuristic.objective


def test_unseeded_walk_starts_at_the_top(tiny_problem):
    """Without the GP+A seed the walk starts at the highest candidate and
    reaches the same proven optimum, after more probes."""
    seeded = solve_exact_min_ii(tiny_problem)
    shared_packing_memos_clear()
    unseeded = solve_exact_min_ii(tiny_problem, ExactSettings(seed_with_heuristic=False))
    assert seeded.status is unseeded.status is SolveStatus.OPTIMAL
    assert seeded.details["seeded"] and not unseeded.details["seeded"]
    assert seeded.solution.counts == unseeded.solution.counts
    assert unseeded.counters["packs"] >= seeded.counters["packs"]
