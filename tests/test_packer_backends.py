"""Packer search equivalence suites.

Three implementations must agree on every instance:

* the **bin-completion** engine (the packer's exact search, Korf-style
  maximal completions with dominance pruning),
* the plain **branching** search (item-at-a-time backtracking, the parity
  reference :class:`branching_packer.BranchingPacker`),
* the list-based completion engine and greedy witness versus their
  explicit-stack reference in ``completion_oracle`` (same nodes, same
  order, so the same verdicts and node counts).

Feasibility claims must match whenever both sides return a *proof* (an
``exact`` verdict); a budget-exhausted search may differ in verdict but must
honour the same contract (infeasible + inexact + empty assignment).  The
meet-in-the-middle two-bin decider is cross-checked against brute force.
"""

from __future__ import annotations

import itertools

import completion_oracle
import numpy as np
from branching_packer import BranchingPacker
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minlp._packcore import (
    FEASIBLE,
    INFEASIBLE,
    completion_feasible,
    greedy_feasible,
    two_bin_box_feasible,
    two_bin_filter,
    two_bin_tables,
)
from repro.minlp.binpacking import PackingItemType, VectorBinPacker


@st.composite
def packing_instances(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    num_bins = draw(st.integers(min_value=1, max_value=4))
    capacity = [draw(st.floats(min_value=4.0, max_value=12.0)) for _ in range(dims)]
    num_types = draw(st.integers(min_value=1, max_value=4))
    size_strategy = st.one_of(st.just(0.0), st.floats(min_value=0.1, max_value=8.0))
    items = []
    for index in range(num_types):
        count = draw(st.integers(min_value=0, max_value=5))
        size = tuple(draw(size_strategy) for _ in range(dims))
        items.append(PackingItemType(name=f"k{index}", count=count, size=size))
    return num_bins, capacity, items


def assert_valid_assignment(packer, items, result):
    for item in items:
        assert sum(result.assignment[item.name]) == item.count
    for bin_index in range(packer.num_bins):
        for dim in range(len(packer.capacity)):
            load = sum(
                result.assignment[item.name][bin_index] * item.size[dim] for item in items
            )
            assert load <= packer.capacity[dim] + 1e-6


class TestCompletionVsBranching:
    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_equivalent_verdicts_on_random_instances(self, instance):
        num_bins, capacity, items = instance
        completion = VectorBinPacker(num_bins=num_bins, capacity=capacity)
        branching = BranchingPacker(num_bins=num_bins, capacity=capacity)
        completion_result = completion.pack(items)
        branching_result = branching.pack(items)
        if completion_result.exact and branching_result.exact:
            assert completion_result.feasible == branching_result.feasible
        if completion_result.feasible:
            assert_valid_assignment(completion, items, completion_result)
        if branching_result.feasible:
            assert_valid_assignment(branching, items, branching_result)
            # Completion's stronger root reasoning must never lose a packing
            # the branching search can still find.
            assert completion_result.feasible

    def test_budget_exhaustion_contract_is_shared(self):
        # Feasible only through search: best-fit-decreasing strands a 3.5.
        items = [
            PackingItemType("k0", count=2, size=(2.0,)),
            PackingItemType("k1", count=2, size=(1.9,)),
            PackingItemType("k2", count=2, size=(3.5,)),
            PackingItemType("k3", count=3, size=(1.5,)),
        ]
        for packer_class in (VectorBinPacker, BranchingPacker):
            solvable = packer_class(num_bins=3, capacity=[7.0])
            assert solvable.pack(items).feasible  # greedy screens fail, search wins
            starved = packer_class(num_bins=3, capacity=[7.0], max_backtrack_nodes=1)
            result = starved.pack(items)
            if result.feasible:
                continue  # decided before the budget could bite
            assert not result.exact, packer_class
            assert result.assignment == {}, packer_class

    def test_min_ii_agrees_across_searches(self, tiny_problem, monkeypatch):
        from repro.core.exact import solve_exact_min_ii
        from repro.minlp.binpacking import shared_packing_memos_clear

        iis = {}
        for name, search in (
            ("completion", VectorBinPacker._exact_search),
            ("branching", VectorBinPacker._exact_search_branching),
        ):
            shared_packing_memos_clear()
            monkeypatch.setattr(VectorBinPacker, "_exact_search", search)
            outcome = solve_exact_min_ii(tiny_problem)
            assert outcome.succeeded
            iis[name] = outcome.initiation_interval
        shared_packing_memos_clear()
        assert iis["completion"] == iis["branching"]


class TestListEngineMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(packing_instances(), st.booleans())
    def test_identical_verdicts_and_node_counts(self, instance, derate_odd_bins):
        num_bins, capacity, items = instance
        sizes = [list(item.size) for item in items]
        counts = [item.count for item in items]
        # Derating every other bin exercises the mixed-capacity rules too.
        caps = [
            [c * (0.75 if derate_odd_bins and b % 2 else 1.0) for c in capacity]
            for b in range(num_bins)
        ]
        for budget in (1, 50, 200_000):
            expected = completion_oracle.completion_feasible(sizes, counts, caps, 1e-9, budget)
            assert completion_feasible(sizes, counts, caps, 1e-9, budget) == expected, budget
        expected = completion_oracle.greedy_feasible(sizes, counts, caps, 1e-9)
        assert greedy_feasible(sizes, counts, caps, 1e-9) == expected


class TestTwoBinDecider:
    def brute_force(self, sizes, counts, lower, upper):
        axes = [range(int(count) + 1) for count in counts]
        for combo in itertools.product(*axes):
            load = np.asarray(combo, dtype=np.float64) @ sizes
            if np.all(load >= lower) and np.all(load <= upper):
                return FEASIBLE
        return INFEASIBLE

    @settings(max_examples=100, deadline=None)
    @given(packing_instances())
    def test_matches_brute_force(self, instance):
        _, capacity, items = instance
        if not items:
            return
        sizes = np.array([item.size for item in items], dtype=np.float64)
        counts = np.array([item.count for item in items], dtype=np.int64)
        tables = two_bin_tables(sizes, counts)
        assert tables is not None  # instances are tiny by construction
        caps = np.asarray(capacity, dtype=np.float64)
        total = counts.astype(np.float64) @ sizes
        lower = np.maximum(total - caps, 0.0)  # bin 2 takes the rest
        upper = caps.copy()
        sums_a, sums_b = two_bin_filter(tables, counts)
        verdict = two_bin_box_feasible(sums_a, sums_b, lower, upper)
        assert verdict == self.brute_force(sizes, counts, lower, upper)

    def test_residual_filter_respects_counts(self):
        sizes = np.array([[3.0], [2.0]])
        counts = np.array([2, 2])
        tables = two_bin_tables(sizes, counts)
        sums_a, sums_b = two_bin_filter(tables, np.array([1, 0]))
        loads = (sums_a[:, None, :] + sums_b[None, :, :]).reshape(-1)
        # Only 0 or one item of size 3 remain available.
        assert set(np.round(loads, 9)) <= {0.0, 3.0}
