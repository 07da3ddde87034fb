"""Parity and contract tests for the vectorized bin packer (PR 3).

The packer was rewritten around a NumPy load matrix with suffix-demand
precomputation, equal-bin symmetry breaking, a slot-counting infeasibility
bound and a shared feasibility memo.  These tests pin it against the
pre-rewrite scalar reference implementation (embedded below verbatim, minus
the rewrite's pruning) on random instances, and nail down the
budget-exhaustion contract that was previously reachable but never asserted.
"""

import math

import pytest
from branching_packer import BranchingPacker
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memo import Memo
from repro.minlp.binpacking import (
    PACKING_MEMO_ENTRIES,
    PackingItemType,
    PackingResult,
    VectorBinPacker,
    packing_key,
    shared_packing_memo,
    shared_packing_memos_clear,
)


class ScalarReferencePacker:
    """The pre-PR 3 scalar exact search (same screens, no new pruning).

    Kept as an executable specification: both implementations must agree on
    feasibility whenever both produce a proven (exact) answer.
    """

    def __init__(self, num_bins, capacity, tolerance=1e-9, max_backtrack_nodes=200_000):
        self.num_bins = num_bins
        self.capacity = tuple(float(c) for c in capacity)
        self.tolerance = tolerance
        self.max_backtrack_nodes = max_backtrack_nodes

    def pack(self, items):
        for dim in range(len(self.capacity)):
            total = sum(item.count * item.size[dim] for item in items)
            if total > self.num_bins * self.capacity[dim] + self.tolerance:
                return PackingResult.infeasible(exact=True)
        for item in items:
            if item.count and any(
                item.size[d] > self.capacity[d] + self.tolerance
                for d in range(len(self.capacity))
            ):
                return PackingResult.infeasible(exact=True)
        return self._exact_search(items)

    def _exact_search(self, items):
        order = sorted(
            (item for item in items if item.count > 0),
            key=lambda item: (max(item.size), item.count),
            reverse=True,
        )
        loads = [[0.0] * len(self.capacity) for _ in range(self.num_bins)]
        assignment = {item.name: [0] * self.num_bins for item in items}
        nodes = [0]

        def place_kernel(kernel_index):
            if kernel_index == len(order):
                return True
            item = order[kernel_index]
            return distribute(item, 0, item.count, kernel_index)

        def distribute(item, bin_index, remaining, kernel_index):
            nodes[0] += 1
            if nodes[0] > self.max_backtrack_nodes:
                return False
            if remaining == 0:
                return place_kernel(kernel_index + 1)
            if bin_index == self.num_bins:
                return False
            max_here = remaining
            for dim in range(len(self.capacity)):
                if item.size[dim] > 0:
                    slack = self.capacity[dim] + self.tolerance - loads[bin_index][dim]
                    max_here = min(max_here, int(math.floor(slack / item.size[dim] + 1e-12)))
            for count in range(max(0, max_here), -1, -1):
                if count:
                    for dim in range(len(self.capacity)):
                        loads[bin_index][dim] += count * item.size[dim]
                    assignment[item.name][bin_index] += count
                ok = True
                for dim in range(len(self.capacity)):
                    slack = sum(self.capacity[dim] - load[dim] for load in loads)
                    demand = (remaining - count) * item.size[dim]
                    for later in order[kernel_index + 1 :]:
                        demand += later.count * later.size[dim]
                    if demand > slack + self.tolerance * self.num_bins:
                        ok = False
                        break
                if ok and distribute(item, bin_index + 1, remaining - count, kernel_index):
                    return True
                if count:
                    for dim in range(len(self.capacity)):
                        loads[bin_index][dim] -= count * item.size[dim]
                    assignment[item.name][bin_index] -= count
            return False

        feasible = place_kernel(0)
        exact = nodes[0] <= self.max_backtrack_nodes
        if feasible:
            return PackingResult(
                feasible=True,
                assignment={name: tuple(counts) for name, counts in assignment.items()},
                exact=True,
            )
        return PackingResult.infeasible(exact=exact)


def assert_valid_assignment(packer, items, result):
    """A feasible result must place every CU and respect every capacity."""
    for item in items:
        assert sum(result.assignment[item.name]) == item.count
    for bin_index in range(packer.num_bins):
        for dim in range(len(packer.capacity)):
            load = sum(
                result.assignment[item.name][bin_index] * item.size[dim] for item in items
            )
            assert load <= packer.capacity[dim] + 1e-6


@st.composite
def packing_instances(draw):
    dims = draw(st.integers(min_value=1, max_value=3))
    num_bins = draw(st.integers(min_value=1, max_value=4))
    capacity = [draw(st.floats(min_value=4.0, max_value=12.0)) for _ in range(dims)]
    num_types = draw(st.integers(min_value=1, max_value=4))
    # Sizes are either zero or macroscopic: denormal sizes (~1e-309) overflow
    # the reference packer's slack/size division, which the rewrite guards.
    size_strategy = st.one_of(
        st.just(0.0), st.floats(min_value=0.1, max_value=8.0)
    )
    items = []
    for index in range(num_types):
        count = draw(st.integers(min_value=0, max_value=5))
        size = tuple(draw(size_strategy) for _ in range(dims))
        items.append(PackingItemType(name=f"k{index}", count=count, size=size))
    return num_bins, capacity, items


class TestScalarVectorParity:
    @settings(max_examples=200, deadline=None)
    @given(packing_instances())
    def test_feasibility_parity_on_random_instances(self, instance):
        num_bins, capacity, items = instance
        vectorized = VectorBinPacker(num_bins=num_bins, capacity=capacity)
        reference = ScalarReferencePacker(num_bins=num_bins, capacity=capacity)
        new_result = vectorized.pack(items)
        old_result = reference.pack(items)
        if new_result.exact and old_result.exact:
            assert new_result.feasible == old_result.feasible
        if new_result.feasible:
            assert_valid_assignment(vectorized, items, new_result)
        if old_result.feasible:
            # The rewrite's extra pruning must never lose a feasible packing.
            assert new_result.feasible

    def test_non_greedy_instance_agrees(self):
        # FFD fails here: 6,5,5,4 into two bins of 10 needs the 6+4 pairing.
        items = [
            PackingItemType("a", count=1, size=(6.0,)),
            PackingItemType("b", count=2, size=(5.0,)),
            PackingItemType("c", count=1, size=(4.0,)),
        ]
        new_result = VectorBinPacker(num_bins=2, capacity=[10.0]).pack(items)
        old_result = ScalarReferencePacker(num_bins=2, capacity=[10.0]).pack(items)
        assert new_result.feasible and old_result.feasible

    def test_counting_bound_agrees_with_search_verdict(self):
        # 5 items of size 3 into 2 bins of 5: the slot-counting bound (m=1:
        # 5 items > 2.5, limit 2) proves what the reference needs a search for.
        items = [PackingItemType("a", count=5, size=(3.0,))]
        new_result = VectorBinPacker(num_bins=2, capacity=[5.0]).pack(items)
        old_result = ScalarReferencePacker(num_bins=2, capacity=[5.0]).pack(items)
        assert not new_result.feasible and new_result.exact
        assert new_result.nodes == 0  # proven without expanding a node
        assert not old_result.feasible


class TestNodeBudgetExhaustion:
    #: Feasible, but only through the exact search: best-fit-decreasing
    #: strands a 3.5 after packing 3.5+3.5+2.0 and 1.9+1.9+1.5x3 greedily.
    HARD_ITEMS = [
        PackingItemType("k0", count=2, size=(2.0,)),
        PackingItemType("k1", count=2, size=(1.9,)),
        PackingItemType("k2", count=2, size=(3.5,)),
        PackingItemType("k3", count=3, size=(1.5,)),
    ]

    def test_budget_exhaustion_reports_inexact_infeasible(self):
        generous = VectorBinPacker(num_bins=2, capacity=[10.0])
        generous_result = generous.pack(self.HARD_ITEMS)
        assert generous_result.feasible  # the instance is solvable...
        assert generous_result.nodes > 2  # ...but not within a 2-node budget

        starved = VectorBinPacker(num_bins=2, capacity=[10.0], max_backtrack_nodes=2)
        result = starved.pack(self.HARD_ITEMS)
        # The contract: a budget-exhausted search reports infeasible but MUST
        # NOT claim the infeasibility is proven.
        assert not result.feasible
        assert not result.exact
        assert result.assignment == {}
        assert result.nodes > starved.max_backtrack_nodes

    def test_exhaustive_infeasibility_is_exact(self):
        # Truly infeasible, yet invisible to every screen: two 6s cannot
        # share a bin and the 5 fits next to neither, but 5 is not *strictly*
        # above the counting threshold 10/2 and the totals fit aggregate-wise.
        items = [
            PackingItemType("a", count=2, size=(6.0,)),
            PackingItemType("b", count=1, size=(5.0,)),
        ]
        packer = VectorBinPacker(num_bins=2, capacity=[10.0])
        result = packer.pack(items)
        assert not result.feasible
        assert result.exact
        # Bin completion proves this at the root (the two-bin decider),
        # without expanding a single branching node.
        assert result.nodes == 0
        branching = BranchingPacker(num_bins=2, capacity=[10.0])
        reference = branching.pack(items)
        assert not reference.feasible
        assert reference.exact
        assert 0 < reference.nodes <= branching.max_backtrack_nodes


class TestPackingMemo:
    def test_shared_memo_reuses_results(self):
        shared_packing_memos_clear()
        items = [PackingItemType("a", count=4, size=(4.0,))]

        def build():
            packer = VectorBinPacker(num_bins=2, capacity=[10.0])
            packer.memo = shared_packing_memo(packer.config_key())
            return packer

        first = build()
        first_result = first.pack(items)
        second = build()  # distinct instance, same configuration
        assert second.memo is first.memo
        second_result = second.pack(items)
        assert (second.memo_hits, second.memo_misses) == (1, 0)
        assert second_result is first_result

    def test_different_configuration_does_not_share(self):
        shared_packing_memos_clear()
        one = VectorBinPacker(num_bins=2, capacity=[10.0])
        other = VectorBinPacker(num_bins=3, capacity=[10.0])
        assert shared_packing_memo(one.config_key()) is not shared_packing_memo(
            other.config_key()
        )

    def test_memo_eviction_and_clear(self):
        memo = Memo(2)
        for count in range(3):
            items = [PackingItemType("a", count=count, size=(1.0,))]
            memo.put(packing_key(items), PackingResult(feasible=True, assignment={}, exact=True))
        assert len(memo) == 2  # eviction kept the newest two
        memo.clear()
        assert len(memo) == 0

    def test_packer_counts_its_memo_hits_and_misses(self):
        packer = VectorBinPacker(num_bins=1, capacity=[10.0], memo=Memo(PACKING_MEMO_ENTRIES))
        items = [PackingItemType("a", count=2, size=(1.0,))]
        first = packer.pack(items)
        assert packer.pack(items) is first
        assert (packer.memo_hits, packer.memo_misses) == (1, 1)
