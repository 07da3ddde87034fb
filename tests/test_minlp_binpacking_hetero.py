"""Heterogeneous-bin packing: parity against a scalar reference, the packing memo.

Two halves:

* a Hypothesis parity suite packing random item multisets into *mixed-size*
  bins with the production :class:`VectorBinPacker` and a brute-force scalar
  reference packer (plain DFS over per-bin distributions with per-bin caps,
  no symmetry/slack pruning) -- both must agree on feasibility whenever both
  answers are proven;
* unit tests of the packing memo (a :class:`~repro.memo.Memo` keyed by
  :func:`packing_key`): exact-key hits, eviction, and the hit counters of
  an exact solve.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memo import Memo
from repro.minlp.binpacking import (
    PACKING_MEMO_ENTRIES,
    PackingItemType,
    PackingResult,
    VectorBinPacker,
    packing_key,
)


class ScalarHeteroReferencePacker:
    """Brute-force DFS with per-bin capacities; an executable specification."""

    def __init__(self, bin_capacities, tolerance=1e-9, max_nodes=300_000):
        self.bin_capacities = [tuple(float(c) for c in row) for row in bin_capacities]
        self.num_bins = len(self.bin_capacities)
        self.dims = len(self.bin_capacities[0])
        self.tolerance = tolerance
        self.max_nodes = max_nodes

    def pack(self, items):
        items = [item for item in items if item.count > 0]
        loads = [[0.0] * self.dims for _ in range(self.num_bins)]
        nodes = [0]

        def place(item_index):
            if item_index == len(items):
                return True
            return distribute(items[item_index], 0, items[item_index].count, item_index)

        def distribute(item, bin_index, remaining, item_index):
            nodes[0] += 1
            if nodes[0] > self.max_nodes:
                raise TimeoutError
            if remaining == 0:
                return place(item_index + 1)
            if bin_index == self.num_bins:
                return False
            caps = self.bin_capacities[bin_index]
            max_here = remaining
            for dim in range(self.dims):
                if item.size[dim] > 0:
                    slack = caps[dim] + self.tolerance - loads[bin_index][dim]
                    max_here = min(max_here, int(slack // item.size[dim]))
            for count in range(max(0, max_here), -1, -1):
                for dim in range(self.dims):
                    loads[bin_index][dim] += count * item.size[dim]
                if distribute(item, bin_index + 1, remaining - count, item_index):
                    return True
                for dim in range(self.dims):
                    loads[bin_index][dim] -= count * item.size[dim]
            return False

        try:
            feasible = place(0)
        except TimeoutError:
            return None
        return feasible


@st.composite
def hetero_instances(draw):
    dims = draw(st.integers(min_value=1, max_value=2))
    num_bins = draw(st.integers(min_value=2, max_value=4))
    bin_capacities = [
        tuple(
            float(draw(st.integers(min_value=0, max_value=12))) for _ in range(dims)
        )
        for _ in range(num_bins)
    ]
    num_items = draw(st.integers(min_value=1, max_value=4))
    items = []
    for index in range(num_items):
        size = tuple(
            float(draw(st.integers(min_value=0, max_value=8))) for _ in range(dims)
        )
        count = draw(st.integers(min_value=0, max_value=5))
        items.append(PackingItemType(name=f"k{index}", count=count, size=size))
    return bin_capacities, items


@settings(max_examples=200, deadline=None)
@given(hetero_instances())
def test_hetero_packer_matches_scalar_reference(instance):
    bin_capacities, items = instance
    packer = VectorBinPacker(
        num_bins=len(bin_capacities), bin_capacities=bin_capacities
    )
    result = packer.pack(items)
    reference = ScalarHeteroReferencePacker(bin_capacities).pack(items)
    if reference is None or not result.exact:
        return  # one side exhausted its budget; nothing proven to compare
    assert result.feasible == reference
    if result.feasible:
        # The returned assignment must itself be a valid packing.
        loads = [[0.0] * len(bin_capacities[0]) for _ in bin_capacities]
        for item in items:
            per_bin = result.assignment[item.name]
            assert sum(per_bin) == item.count
            for bin_index, count in enumerate(per_bin):
                for dim in range(len(item.size)):
                    loads[bin_index][dim] += count * item.size[dim]
        for bin_index, row in enumerate(loads):
            for dim, load in enumerate(row):
                assert load <= bin_capacities[bin_index][dim] + 1e-6


def test_constructor_validation():
    with pytest.raises(ValueError):
        VectorBinPacker(num_bins=2)  # neither capacity nor bin_capacities
    with pytest.raises(ValueError):
        VectorBinPacker(num_bins=2, capacity=[10.0], bin_capacities=[[10.0], [5.0]])
    with pytest.raises(ValueError):
        VectorBinPacker(num_bins=3, bin_capacities=[[10.0], [5.0]])  # row count
    with pytest.raises(ValueError):
        VectorBinPacker(num_bins=2, bin_capacities=[[10.0, 5.0], [5.0]])  # ragged


def test_uniform_detection_and_config_key():
    uniform = VectorBinPacker(num_bins=2, bin_capacities=[[10.0, 5.0], [10.0, 5.0]])
    assert uniform.uniform
    assert uniform.capacity == (10.0, 5.0)
    mixed = VectorBinPacker(num_bins=2, bin_capacities=[[10.0, 5.0], [4.0, 8.0]])
    assert not mixed.uniform
    assert mixed.capacity == (10.0, 8.0)  # per-dimension ceiling
    assert uniform.config_key() != mixed.config_key()
    legacy = VectorBinPacker(num_bins=2, capacity=[10.0, 5.0])
    assert legacy.config_key() == uniform.config_key()


def test_mixed_bins_single_item_screen():
    # The item fits neither bin whole, though each dimension fits *some* bin.
    packer = VectorBinPacker(num_bins=2, bin_capacities=[[10.0, 1.0], [1.0, 10.0]])
    result = packer.pack([PackingItemType("a", 1, (5.0, 5.0))])
    assert not result.feasible and result.exact


def test_mixed_bins_use_the_big_bin():
    packer = VectorBinPacker(num_bins=2, bin_capacities=[[4.0], [10.0]])
    result = packer.pack([PackingItemType("a", 1, (7.0,))])
    assert result.feasible
    assert result.assignment["a"] == (0, 1)


def test_mixed_bins_counting_bound_proves_infeasibility():
    # Three items of size 6: the big bin holds one, the small bins none.
    packer = VectorBinPacker(num_bins=3, bin_capacities=[[7.0], [4.0], [4.0]])
    result = packer.pack([PackingItemType("a", 3, (6.0,))])
    assert not result.feasible and result.exact
    assert packer.last_nodes == 0  # screened out before any search


# --------------------------------------------------------------------------- #
# Memo keying and eviction
# --------------------------------------------------------------------------- #
def _items(counts):
    return [
        PackingItemType(name=f"k{index}", count=count, size=(4.0,))
        for index, count in enumerate(counts)
    ]


def test_memo_evicts_the_oldest_entry():
    memo = Memo(2)
    for count in (1, 2, 3):  # the third put evicts [1]
        memo.put(packing_key(_items([count])), PackingResult.infeasible(exact=True))
    assert len(memo) == 2
    assert memo.get(packing_key(_items([1]))) is None
    assert memo.get(packing_key(_items([2]))) is not None
    memo.clear()
    assert len(memo) == 0
    assert memo.get(packing_key(_items([3]))) is None


def test_memo_answers_only_the_exact_count_vector():
    """A repeat is a memo hit; a componentwise smaller vector is packed fresh."""
    memo = Memo(PACKING_MEMO_ENTRIES)
    packer = VectorBinPacker(num_bins=2, capacity=[10.0], memo=memo)
    first = packer.pack(_items([2, 2]))  # 4 items of size 4 into 2 x 10: packs
    assert first.feasible
    smaller = packer.pack(_items([1, 2]))
    assert smaller.feasible and smaller.exact
    assert packer.memo_hits == 0 and packer.memo_misses == 2
    loads = [0.0, 0.0]
    for per_bin in smaller.assignment.values():
        for bin_index, count in enumerate(per_bin):
            loads[bin_index] += 4.0 * count
    assert sum(smaller.assignment["k0"]) == 1 and sum(smaller.assignment["k1"]) == 2
    assert max(loads) <= 10.0 + 1e-9
    assert packer.pack(_items([2, 2])) is first
    assert packer.memo_hits == 1
    assert len(memo) == 2


def test_memo_key_includes_item_sizes():
    memo = Memo(PACKING_MEMO_ENTRIES)
    packer = VectorBinPacker(num_bins=1, capacity=[10.0], memo=memo)
    assert not packer.pack([PackingItemType("a", 3, (4.0,))]).feasible
    # Same name and count, different size: a different key, solved fresh.
    result = packer.pack([PackingItemType("a", 3, (1.0,))])
    assert result.feasible
    assert packer.memo_hits == 0


def test_memo_hits_reach_solver_counters():
    """A repeated exact solve answers every probe from the shared memo."""
    from repro.core.exact import ExactSettings, solve_exact_min_ii
    from repro.minlp.binpacking import shared_packing_memos_clear
    from repro.reporting.experiments import case_study

    shared_packing_memos_clear()
    problem = case_study("alex-16", resource_limit_percent=70.0)
    first = solve_exact_min_ii(problem, ExactSettings())
    second = solve_exact_min_ii(problem, ExactSettings())
    assert first.succeeded and second.succeeded
    assert second.initiation_interval == first.initiation_interval
    assert first.counters["packing_memo_hits"] == 0
    assert first.counters["packing_memo_misses"] == first.counters["packs"] > 0
    assert second.counters["packing_memo_hits"] == second.counters["packs"]
    assert second.counters["packing_memo_misses"] == 0
    assert second.counters["packer_exact_searches"] == 0


class TestSkewedFleetFFDOrdering:
    """FFD candidate-bin ordering on mixed fleets: fraction-of-own-capacity.

    The historical ordering ranked candidate bins by absolute load, so on a
    skewed fleet a large half-empty device outranked a small nearly-full
    one; the small device's last slack went unused while the large device
    burned the contiguous space only it could offer to the biggest CUs, and
    FFD fell through to the exact search.  The fraction-of-capacity ordering
    (mirroring the allocator's normalized-residual consolidation) tops the
    proportionally fullest bin off first.
    """

    #: One wide-resource/narrow-bandwidth device plus one narrow/wide one.
    SKEWED_BINS = [(100.0, 8.0), (10.0, 50.0)]

    #: Sorted by FFD's size key the items place as P, Q, R, T.  Under
    #: absolute-load ordering R lands in the big bin (absolute load 57 beats
    #: 41), T then fits nowhere and FFD fails; under fractional ordering R
    #: tops off the small bin (fullness 0.9 beats 0.8) and T consolidates
    #: into the big bin with zero search nodes.
    ITEMS = [
        PackingItemType(name="P", count=1, size=(1.0, 40.0)),
        PackingItemType(name="Q", count=1, size=(55.0, 2.0)),
        PackingItemType(name="R", count=1, size=(6.0, 5.5)),
        PackingItemType(name="T", count=1, size=(10.0, 1.0)),
    ]

    def test_ffd_consolidates_skewed_fleet_without_search(self):
        packer = VectorBinPacker(
            num_bins=2, bin_capacities=self.SKEWED_BINS, placement="consolidate"
        )
        result = packer.pack(self.ITEMS)
        assert result.feasible and result.exact
        assert packer.last_nodes == 0  # FFD answered; no exact-search fallback
        assert dict(result.assignment) == {
            "P": (0, 1),
            "Q": (1, 0),
            "R": (0, 1),  # tops off the proportionally fuller small device
            "T": (1, 0),
        }

    def test_absolute_load_ordering_would_fail_ffd(self):
        """Executable record of the consolidation win: replaying FFD with the
        old absolute-load ordering on the same instance finds no packing."""
        packer = VectorBinPacker(
            num_bins=2, bin_capacities=self.SKEWED_BINS, placement="consolidate"
        )
        loads = [[0.0, 0.0], [0.0, 0.0]]
        order = sorted(
            self.ITEMS,
            key=lambda item: max(
                item.size[dim] / packer.capacity[dim] for dim in range(2)
            ),
            reverse=True,
        )
        failed = False
        for item in order:
            placed = False
            for bin_index in sorted(range(2), key=lambda b: -sum(loads[b])):
                if packer._fits(loads[bin_index], item.size, bin_index):
                    for dim in range(2):
                        loads[bin_index][dim] += item.size[dim]
                    placed = True
                    break
            if not placed:
                failed = True
        assert failed

    def test_uniform_bins_keep_absolute_ordering(self):
        """Homogeneous platforms must stay byte-identical to the recorded
        baselines: identical capacities take the absolute-load path, whose
        result on a reference instance is pinned here."""
        packer = VectorBinPacker(num_bins=2, capacity=(10.0, 10.0), placement="consolidate")
        result = packer.pack(
            [
                PackingItemType(name="a", count=3, size=(3.0, 1.0)),
                PackingItemType(name="b", count=2, size=(1.0, 4.0)),
            ]
        )
        assert result.feasible
        assert dict(result.assignment) == {"a": (2, 1), "b": (2, 0)}
