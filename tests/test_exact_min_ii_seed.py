"""Regression tests: the exact min-II solver seeded with the heuristic.

The ``beta = 0`` exact solver binary-searches the candidate II values and
treats a budget-exhausted packing probe as infeasible.  Before the seed,
that *overestimated* the proven optimum whenever the exact search ran out of
nodes on a probe the gp+a allocation could answer: on alex-16 x 4 FPGAs at
R <= 80 % the solver returned a strictly worse II than the heuristic it is
supposed to dominate (0.6325 vs 0.6091 at 70 %, 0.5160 vs 0.5138 at 80 %).

The fix consults the heuristic's allocation only after a budget-exhausted
failure: packing feasibility is monotone in the CU count vector, so any
probe whose required totals are componentwise dominated by the heuristic's
counts is feasible by stripping the surplus CUs from the heuristic's
(feasible) assignment.  Proven probe results are never overridden, keeping
every recorded baseline byte-identical.
"""

from __future__ import annotations

import pytest

from repro.core.exact import ExactSettings, solve_exact_min_ii
from repro.core.heuristic import HeuristicSettings, solve_gp_a
from repro.core.problem import AllocationProblem
from repro.minlp.binpacking import VectorBinPacker, shared_packing_memos_clear
from repro.platform.presets import aws_f1
from repro.workloads.alexnet import alexnet_fx16

#: A small packer budget keeps the regression fast (~40 ms instead of the
#: seconds a 200k-node budget burns on every exhausted probe) while hitting
#: exactly the failure mode: the exact search gives up, the seed answers.
FAST_BUDGET = ExactSettings(packer_max_nodes=2_000)

#: The corrected optima on alex-16 x 4 FPGAs (verified identical under the
#: default 200k-node budget; the pre-seed solver returned 0.6325 and 0.5160).
CORRECTED_II = {70.0: 0.6090909090909091, 80.0: 0.51375}

#: The packer's exact search: bin completion, then the branching search as
#: assignment extractor.
_COMPLETION_SEARCH = VectorBinPacker._exact_search


def _alex16_on_4_fpgas(resource_percent: float) -> AllocationProblem:
    return AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=aws_f1(num_fpgas=4, resource_limit_percent=resource_percent),
    )


@pytest.fixture(autouse=True)
def _cold_packing_memos(monkeypatch):
    # The seed path triggers on budget-exhausted probes; shared memos from
    # other tests could answer them first and mask the scenario.  The
    # scenario itself is specific to the plain *branching* search: bin
    # completion proves these probes within the same budget and never
    # consults the seed (see test_completion_search_needs_no_seed).
    monkeypatch.setattr(
        VectorBinPacker, "_exact_search", VectorBinPacker._exact_search_branching
    )
    shared_packing_memos_clear()
    yield
    shared_packing_memos_clear()


@pytest.mark.parametrize("resource", sorted(CORRECTED_II))
def test_seeded_min_ii_pins_corrected_optimum(resource):
    """Budget-exhausted packings no longer overestimate the optimum."""
    outcome = solve_exact_min_ii(_alex16_on_4_fpgas(resource), FAST_BUDGET)
    assert outcome.succeeded
    assert outcome.solution is not None and outcome.solution.is_feasible()
    assert outcome.details["optimal_ii"] == pytest.approx(CORRECTED_II[resource], rel=1e-12)
    # The win came from the heuristic seed, not from a lucky search.
    assert outcome.counters["packer_seed_packs"] >= 1


@pytest.mark.parametrize("resource", (70.0, 75.0, 80.0))
def test_seeded_exact_never_worse_than_heuristic(resource):
    """The exact solver must dominate the heuristic it is seeded with."""
    problem = _alex16_on_4_fpgas(resource)
    exact = solve_exact_min_ii(problem, FAST_BUDGET)
    heuristic = solve_gp_a(problem, HeuristicSettings())
    assert exact.succeeded and heuristic.succeeded
    assert exact.objective <= heuristic.objective + 1e-12


def test_seed_gated_by_settings_reproduces_old_overestimate():
    """``seed_with_heuristic=False`` restores the pre-seed behaviour (the
    documented bug), proving the flag gates the fallback."""
    problem = _alex16_on_4_fpgas(70.0)
    unseeded = solve_exact_min_ii(
        problem, ExactSettings(packer_max_nodes=2_000, seed_with_heuristic=False)
    )
    shared_packing_memos_clear()  # the unseeded probes must not feed the seeded run
    seeded = solve_exact_min_ii(problem, FAST_BUDGET)
    assert unseeded.counters["packer_seed_packs"] == 0
    assert seeded.objective < unseeded.objective  # the seed strictly improves
    assert unseeded.objective == pytest.approx(0.6325, rel=1e-9)


def test_completion_search_needs_no_seed(monkeypatch):
    """The packer's bin-completion search proves the probes the branching
    search exhausted its budget on, without ever consulting the heuristic
    seed -- and lands on a strictly better (verified feasible) optimum than
    the seeded branching search: the seed only repairs probes the heuristic's
    counts dominate, while the completion engine proves the rest outright."""
    monkeypatch.setattr(VectorBinPacker, "_exact_search", _COMPLETION_SEARCH)
    shared_packing_memos_clear()
    outcome = solve_exact_min_ii(_alex16_on_4_fpgas(70.0), FAST_BUDGET)
    assert outcome.succeeded
    assert outcome.solution is not None and outcome.solution.is_feasible()
    assert outcome.details["optimal_ii"] == pytest.approx(0.5871428571428572, rel=1e-12)
    assert outcome.details["optimal_ii"] < CORRECTED_II[70.0]
    assert outcome.counters["packer_seed_packs"] == 0


def test_seed_does_not_touch_proven_probes(tiny_problem):
    """On an instance the packer proves outright, the seed never fires and
    the allocation matches the unseeded solver exactly."""
    seeded = solve_exact_min_ii(tiny_problem)
    shared_packing_memos_clear()
    unseeded = solve_exact_min_ii(tiny_problem, ExactSettings(seed_with_heuristic=False))
    assert seeded.counters["packer_seed_packs"] == 0
    assert seeded.objective == unseeded.objective
    assert seeded.solution.counts == unseeded.solution.counts
