"""Tests for the MINLP substrate: bounds, secants, bin packing."""

import math

import numpy as np
import pytest

from repro.minlp.bounds import VariableBounds
from repro.minlp.binpacking import PackingItemType, VectorBinPacker
from repro.minlp.secant import (
    secant_gap,
    secant_of,
    spreading_of_kernel,
    spreading_secant,
    spreading_term,
)


# Box helpers no solver needs, over the positional bounds.
def interval(bounds, name):
    index = bounds.names.index(name)
    return int(bounds.lower[index]), int(bounds.upper[index])


def is_fixed(bounds, name):
    low, high = interval(bounds, name)
    return low == high


def with_fixed(bounds, name, value):
    index = bounds.names.index(name)
    return bounds.with_lower(index, value).with_upper(index, value)


def all_fixed(bounds):
    return bool(np.all(bounds.lower == bounds.upper))


def clamp(bounds, values):
    return np.minimum(np.maximum(values, bounds.lower), bounds.upper)


def contains_point(bounds, values, tolerance=1e-9):
    values = np.asarray(values, dtype=float)
    return values.shape == bounds.lower.shape and bool(
        np.all(values >= bounds.lower - tolerance) and np.all(values <= bounds.upper + tolerance)
    )


def widths(bounds):
    return dict(zip(bounds.names, (bounds.upper - bounds.lower).tolist()))


def volume_log(bounds):
    return float(np.sum(np.log(bounds.upper - bounds.lower + 1)))


class TestVariableBounds:
    def test_basic_accessors(self):
        bounds = VariableBounds.from_ranges({"a": (0, 5), "b": (2, 2)})
        assert bounds.lower[0] == 0
        assert bounds.upper[0] == 5
        assert is_fixed(bounds, "b")
        assert not is_fixed(bounds, "a")
        assert not all_fixed(bounds)
        assert bounds.names == ("a", "b")
        assert len(bounds) == 2
        assert bounds.lower.dtype == bounds.upper.dtype == np.int64
        with pytest.raises(ValueError):
            bounds.lower[0] = 1  # read-only: nodes share arrays

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ValueError):
            VariableBounds.from_ranges({"a": (3, 2)})
        with pytest.raises(ValueError):
            VariableBounds.from_ranges({"a": (-1, 2)})
        with pytest.raises(ValueError):
            VariableBounds(("a", "b"), [0], [1, 1])

    def test_branching_child_bounds(self):
        bounds = VariableBounds.from_ranges({"a": (0, 5), "b": (1, 4)})
        left = bounds.with_upper(0, 2)
        right = bounds.with_lower(0, 3)
        assert interval(left, "a") == (0, 2)
        assert interval(right, "a") == (3, 5)
        assert interval(bounds, "a") == (0, 5)  # parent untouched
        assert interval(left, "b") == interval(right, "b") == (1, 4)
        assert left.names is bounds.names  # one names tuple per tree
        fixed = with_fixed(bounds, "a", 4)
        assert is_fixed(fixed, "a") and interval(fixed, "a") == (4, 4)

    def test_branching_cannot_create_empty_interval(self):
        bounds = VariableBounds.from_ranges({"a": (2, 5)})
        with pytest.raises(ValueError):
            bounds.with_upper(0, 1)

    def test_clamp_and_contains(self):
        bounds = VariableBounds.from_ranges({"a": (1, 3)})
        assert clamp(bounds, [5.0])[0] == 3.0
        assert contains_point(bounds, [2.0])
        assert not contains_point(bounds, [4.0])
        assert not contains_point(bounds, [])

    def test_widths_and_volume(self):
        bounds = VariableBounds.from_ranges({"a": (0, 3), "b": (1, 1)})
        assert widths(bounds) == {"a": 3, "b": 0}
        assert volume_log(bounds) == pytest.approx(math.log(4))


class TestSecants:
    def test_spreading_term_values(self):
        assert spreading_term(0.0) == 0.0
        assert spreading_term(1.0) == pytest.approx(0.5)
        assert spreading_term(4.0) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            spreading_term(-1.0)

    def test_spreading_of_kernel_prefers_consolidation(self):
        # 4 CUs on one FPGA vs spread 1+1+1+1: consolidation has lower phi.
        assert spreading_of_kernel([4, 0, 0, 0]) < spreading_of_kernel([1, 1, 1, 1])

    def test_secant_underestimates_concave_function(self):
        segment = spreading_secant(0.0, 5.0)
        for n in (0.0, 0.5, 1.0, 2.5, 5.0):
            assert segment.value(n) <= spreading_term(n) + 1e-12

    def test_secant_exact_at_endpoints(self):
        segment = spreading_secant(1.0, 4.0)
        assert segment.value(1.0) == pytest.approx(spreading_term(1.0))
        assert segment.value(4.0) == pytest.approx(spreading_term(4.0))

    def test_degenerate_interval_is_exact(self):
        segment = spreading_secant(3.0, 3.0)
        assert segment.value(3.0) == pytest.approx(spreading_term(3.0))
        assert secant_gap(spreading_term, 3.0, 3.0) == 0.0

    def test_gap_shrinks_with_interval(self):
        wide = secant_gap(spreading_term, 0.0, 8.0)
        narrow = secant_gap(spreading_term, 0.0, 1.0)
        assert narrow < wide

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            secant_of(spreading_term, 2.0, 1.0)


class TestVectorBinPacker:
    def test_simple_feasible_packing(self):
        packer = VectorBinPacker(num_bins=2, capacity=[10.0])
        result = packer.pack([PackingItemType("a", count=4, size=(4.0,))])
        assert result.feasible
        assert sum(result.assignment["a"]) == 4

    def test_aggregate_capacity_infeasible(self):
        packer = VectorBinPacker(num_bins=2, capacity=[10.0])
        result = packer.pack([PackingItemType("a", count=5, size=(5.0,))])
        assert not result.feasible
        assert result.exact

    def test_single_item_too_large(self):
        packer = VectorBinPacker(num_bins=4, capacity=[10.0])
        result = packer.pack([PackingItemType("a", count=1, size=(11.0,))])
        assert not result.feasible

    def test_multi_dimensional_constraint(self):
        packer = VectorBinPacker(num_bins=2, capacity=[10.0, 4.0])
        # Fits dimension 0 easily, dimension 1 binds: 2 items of (1, 3) per bin impossible.
        result = packer.pack([PackingItemType("a", count=3, size=(1.0, 3.0))])
        assert not result.feasible

    def test_exact_search_finds_non_greedy_packing(self):
        # FFD fails here: items 6,5,5,4 into two bins of 10 -> must pair 6+4 and 5+5.
        packer = VectorBinPacker(num_bins=2, capacity=[10.0])
        items = [
            PackingItemType("a", count=1, size=(6.0,)),
            PackingItemType("b", count=2, size=(5.0,)),
            PackingItemType("c", count=1, size=(4.0,)),
        ]
        result = packer.pack(items)
        assert result.feasible

    def test_assignment_respects_capacity(self):
        packer = VectorBinPacker(num_bins=3, capacity=[10.0, 10.0])
        items = [
            PackingItemType("a", count=4, size=(3.0, 2.0)),
            PackingItemType("b", count=2, size=(4.0, 6.0)),
        ]
        result = packer.pack(items)
        assert result.feasible
        for bin_index in range(3):
            load0 = sum(result.assignment[i.name][bin_index] * i.size[0] for i in items)
            load1 = sum(result.assignment[i.name][bin_index] * i.size[1] for i in items)
            assert load0 <= 10.0 + 1e-9
            assert load1 <= 10.0 + 1e-9

    def test_balance_placement_spreads_items(self):
        consolidate = VectorBinPacker(num_bins=4, capacity=[10.0], placement="consolidate")
        balance = VectorBinPacker(num_bins=4, capacity=[10.0], placement="balance")
        items = [PackingItemType("a", count=4, size=(1.0,))]
        bins_used_consolidate = sum(
            1 for value in consolidate.pack(items).assignment["a"] if value > 0
        )
        bins_used_balance = sum(1 for value in balance.pack(items).assignment["a"] if value > 0)
        assert bins_used_consolidate == 1
        assert bins_used_balance == 4

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            VectorBinPacker(num_bins=0, capacity=[1.0])
        with pytest.raises(ValueError):
            VectorBinPacker(num_bins=1, capacity=[1.0], placement="weird")
        with pytest.raises(ValueError):
            PackingItemType("a", count=-1, size=(1.0,))

    def test_dimension_mismatch_rejected(self):
        packer = VectorBinPacker(num_bins=1, capacity=[1.0, 1.0])
        with pytest.raises(ValueError):
            packer.pack([PackingItemType("a", count=1, size=(1.0,))])
