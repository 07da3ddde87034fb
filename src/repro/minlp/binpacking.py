"""Vector bin-packing feasibility for CU allocation.

The beta = 0 variant of the paper's MINLP ("MINLP" curves in Figs. 3-5)
decomposes exactly: the initiation interval depends only on the total CU
counts ``N_k``, and a choice of counts is realisable iff the multiset of CUs
(each CU of kernel ``k`` occupying the vector ``R_k`` plus bandwidth ``B_k``)
packs into ``F`` bins.  The bins are identical on the paper's homogeneous
platform; on a heterogeneous platform each bin carries its own capacity
vector (``bin_capacities``, one row per FPGA in platform order).  This module
provides that feasibility test: fast first-fit-decreasing, and an exact
depth-first search with pruning when the heuristic fails.

The exact search keeps its load state in per-bin Python lists and prunes
three ways:

* **aggregate slack** -- the per-dimension demand of every item still to be
  placed (a suffix sum precomputed once per search) must fit into the total
  remaining slack, tracked incrementally in O(dims) per node;
* **equal-bin symmetry breaking** -- whenever a bin has the same capacity as
  the previous bin (always, with identical bins; within one device class on
  a mixed platform) and its load equals the previous bin's load *before* the
  current item type was placed there, the current bin may receive at most as
  many CUs as the previous one (for the first item type all bins of a class
  are empty, so its CUs can only open bins in canonical non-increasing prefix
  order per class);
* a **node budget** bounding worst-case effort; if it is exhausted a reported
  infeasibility is flagged as not proven (``PackingResult.exact == False``).

Because the same CU count vector is probed repeatedly -- by repeated exact
solves and by design-space sweep re-solves -- feasibility results can be
memoized in a :class:`~repro.memo.Memo` keyed by :func:`packing_key` and
shared across packer instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..memo import Memo
from ..obs.trace import span
from . import _packcore


@dataclass(frozen=True)
class PackingItemType:
    """A group of identical items (the CUs of one kernel)."""

    name: str
    count: int
    size: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if any(s < 0 for s in self.size):
            raise ValueError("item sizes must be non-negative")


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a packing attempt."""

    feasible: bool
    assignment: Mapping[str, tuple[int, ...]]  # kernel name -> CUs per bin
    exact: bool  # True if infeasibility (when reported) is proven
    nodes: int = 0  # exact-search nodes expended (0: screens/heuristic answered)
    completion_nodes: int = 0  # bin-completion engine nodes (0: not consulted)

    @classmethod
    def infeasible(
        cls, exact: bool, nodes: int = 0, completion_nodes: int = 0
    ) -> "PackingResult":
        return cls(
            feasible=False,
            assignment={},
            exact=exact,
            nodes=nodes,
            completion_nodes=completion_nodes,
        )


def packing_key(items: Sequence[PackingItemType]) -> tuple:
    """Packing-memo key of a request: its item names, counts and sizes."""
    return tuple((item.name, item.count, item.size) for item in items)


#: Entries of one packing memo.  One packer configuration (bin count,
#: capacities, node budget) maps a given item multiset to a deterministic
#: result, so results can be reused across packer instances: repeated
#: exact solves and sweep re-solves probe the same count vectors.
PACKING_MEMO_ENTRIES = 16384

#: Packing memos shared across packer instances, keyed by the packer
#: configuration (value-based, so equivalent problems share).
_shared_memos: "Memo[tuple, Memo]" = Memo(64)


def shared_packing_memo(key: tuple) -> Memo:
    """Packing memo shared by every packer with the same configuration key."""
    return _shared_memos.get_or_create(key, lambda: Memo(PACKING_MEMO_ENTRIES))


def shared_packing_memos_clear() -> None:
    """Drop every shared packing memo (used by tests and benchmarks)."""
    _shared_memos.clear()


class VectorBinPacker:
    """Pack groups of identical multi-dimensional items into bins.

    Bins are identical by default (``capacity`` is the shared capacity
    vector, the paper's homogeneous platform); ``bin_capacities`` instead
    gives every bin its own capacity row (a heterogeneous platform, one row
    per FPGA in class-major platform order so equal-capacity bins are
    adjacent and symmetry breaking stays effective within each class).

    Infeasibility left open by the quick screens and first-fit decreasing
    is settled by one exact search: the bin-completion engine proves or
    refutes feasibility, and the branching search extracts the canonical
    assignment under its pruning (or runs alone when the engine's budget
    runs out).
    """

    def __init__(
        self,
        num_bins: int,
        capacity: Sequence[float] | None = None,
        tolerance: float = 1e-9,
        max_backtrack_nodes: int = 200_000,
        memo: "Memo[tuple, PackingResult] | None" = None,
        bin_capacities: "Sequence[Sequence[float]] | None" = None,
    ):
        if num_bins < 1:
            raise ValueError("num_bins must be >= 1")
        if (capacity is None) == (bin_capacities is None):
            raise ValueError("pass exactly one of capacity or bin_capacities")
        if bin_capacities is not None:
            rows = tuple(tuple(float(c) for c in row) for row in bin_capacities)
            if len(rows) != num_bins:
                raise ValueError(
                    f"bin_capacities has {len(rows)} rows, expected {num_bins}"
                )
            dims = {len(row) for row in rows}
            if len(dims) != 1:
                raise ValueError("every bin needs the same number of dimensions")
            if any(c < 0 for row in rows for c in row):
                raise ValueError("capacities must be non-negative")
            self.uniform = all(row == rows[0] for row in rows)
            self.bin_capacities = rows
            #: Per-dimension ceiling over the bins (the uniform capacity when
            #: all bins are identical) -- used by ordering heuristics only.
            self.capacity = (
                rows[0] if self.uniform else tuple(max(column) for column in zip(*rows))
            )
        else:
            assert capacity is not None
            if any(c < 0 for c in capacity):
                raise ValueError("capacities must be non-negative")
            self.uniform = True
            self.capacity = tuple(float(c) for c in capacity)
            self.bin_capacities = (self.capacity,) * num_bins
        self.num_bins = num_bins
        self.tolerance = tolerance
        self.max_backtrack_nodes = max_backtrack_nodes
        self.memo = memo
        #: Exact-search nodes expended by the last :meth:`pack` call.
        self.last_nodes = 0
        #: Bin-completion engine nodes expended by the last :meth:`pack` call.
        self.last_completion_nodes = 0
        #: Memo traffic of THIS packer instance (a shared memo cannot tell
        #: which of several concurrent solves a hit belongs to).
        self.memo_hits = 0
        self.memo_misses = 0

    def config_key(self) -> tuple:
        """Value key identifying this configuration (for shared memos)."""
        key = (
            "pack",
            self.num_bins,
            self.capacity,
            self.max_backtrack_nodes,
            self.tolerance,
        )
        if not self.uniform:
            key = key + (self.bin_capacities,)
        return key

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def pack(self, items: Sequence[PackingItemType]) -> PackingResult:
        """Try to pack all items; memo and heuristics first, exact search last."""
        dims = len(self.capacity)
        for item in items:
            if len(item.size) != dims:
                raise ValueError(
                    f"item {item.name!r} has {len(item.size)} dimensions, expected {dims}"
                )

        self.last_nodes = 0
        self.last_completion_nodes = 0
        with span("bin_pack") as trace_span:
            if self.memo is not None:
                key = packing_key(items)
                cached = self.memo.get(key)
                if cached is not None:
                    self.memo_hits += 1
                    if trace_span is not None:
                        trace_span.attributes["cached"] = True
                    return cached
                self.memo_misses += 1
            result = self._pack_uncached(items)
            if self.memo is not None:
                self.memo.put(key, result)
            if trace_span is not None:
                trace_span.attributes["nodes"] = self.last_nodes
                trace_span.attributes["completion_nodes"] = self.last_completion_nodes
            return result

    def _pack_uncached(self, items: Sequence[PackingItemType]) -> PackingResult:
        if not self._aggregate_feasible(items):
            return PackingResult.infeasible(exact=True)
        if not self._single_item_feasible(items):
            return PackingResult.infeasible(exact=True)
        if not self._counting_feasible(items):
            return PackingResult.infeasible(exact=True)

        heuristic = self._first_fit_decreasing(items)
        if heuristic is not None:
            return PackingResult(feasible=True, assignment=heuristic, exact=True)

        return self._exact_search(items)

    # ------------------------------------------------------------------ #
    # Quick necessary conditions
    # ------------------------------------------------------------------ #
    def _aggregate_feasible(self, items: Sequence[PackingItemType]) -> bool:
        for dim in range(len(self.capacity)):
            total = sum(item.count * item.size[dim] for item in items)
            if self.uniform:
                slack = self.num_bins * self.capacity[dim]
            else:
                slack = sum(row[dim] for row in self.bin_capacities)
            if total > slack + self.tolerance:
                return False
        return True

    def _single_item_feasible(self, items: Sequence[PackingItemType]) -> bool:
        for item in items:
            if item.count == 0:
                continue
            if self.uniform:
                for dim in range(len(self.capacity)):
                    if item.size[dim] > self.capacity[dim] + self.tolerance:
                        return False
            else:
                # Mixed bins: the item must fit whole into at least one bin.
                if not any(
                    all(
                        item.size[dim] <= row[dim] + self.tolerance
                        for dim in range(len(self.capacity))
                    )
                    for row in self.bin_capacities
                ):
                    return False
        return True

    def _counting_feasible(self, items: Sequence[PackingItemType]) -> bool:
        """Per-dimension slot-counting bound.

        Identical bins: a bin cannot hold ``m + 1`` items each larger than
        ``C / (m + 1)`` (their sizes would sum past the capacity ``C``), so in
        any packing ``#{CUs with size > C / (m + 1)} <= m * num_bins``.  This
        proves infeasible many near-capacity instances on which the aggregate
        bound is silent -- e.g. 33 CUs of size ~15 against 8 bins of capacity
        70 -- without expanding a single search node.

        Mixed bins: the bound is applied per device class through its dual
        form -- for every item size ``s``, bin ``b`` holds at most
        ``floor(C_b / s)`` items at least that large, so
        ``#{CUs with size >= s} <= sum_b floor(C_b / s)``.
        """
        if self.uniform:
            total = sum(item.count for item in items)
            # Larger m cannot violate the bound: the big-item count is <= total.
            max_m = total // self.num_bins
            for dim in range(len(self.capacity)):
                cap = self.capacity[dim]
                if cap <= 0:
                    continue  # a positive size never fits; _single_item_feasible caught it
                sizes = sorted(
                    ((item.size[dim], item.count) for item in items if item.count),
                    reverse=True,
                )
                for m in range(1, max_m + 1):
                    threshold = cap / (m + 1) + self.tolerance
                    count = 0
                    for size, item_count in sizes:
                        if size <= threshold:
                            break
                        count += item_count
                    if count > m * self.num_bins:
                        return False
            return True
        for dim in range(len(self.capacity)):
            sizes = sorted(
                ((item.size[dim], item.count) for item in items if item.count),
                reverse=True,
            )
            cumulative = 0
            for size, item_count in sizes:
                cumulative += item_count
                if size <= 0:
                    break
                slots = sum(
                    int(math.floor((row[dim] + self.tolerance) / size))
                    for row in self.bin_capacities
                )
                if cumulative > slots:
                    return False
        return True

    # ------------------------------------------------------------------ #
    # First-fit decreasing
    # ------------------------------------------------------------------ #
    def _first_fit_decreasing(
        self, items: Sequence[PackingItemType]
    ) -> dict[str, tuple[int, ...]] | None:
        """Greedy packing: biggest item groups first, each CU into the
        emptiest bin that still fits (worst-fit spreads the CUs out, as the
        allocations of a pure II-minimising MINLP solver typically are)."""
        order = sorted(
            items,
            key=lambda item: max(
                item.size[dim] / self.capacity[dim] if self.capacity[dim] > 0 else 0.0
                for dim in range(len(self.capacity))
            ),
            reverse=True,
        )
        loads = [[0.0] * len(self.capacity) for _ in range(self.num_bins)]
        assignment = {item.name: [0] * self.num_bins for item in items}

        # Fullness measure ordering the candidate bins.  Identical bins use
        # absolute load; a mixed fleet orders by fraction-of-own-capacity, so
        # a large device is not taken for emptier than a small one merely
        # because its capacity is larger.
        if self.uniform:
            def fullness(bin_index: int) -> float:
                return sum(loads[bin_index])
        else:
            inverse_caps = [
                tuple(1.0 / c if c > 0 else 0.0 for c in row)
                for row in self.bin_capacities
            ]

            def fullness(bin_index: int) -> float:
                return sum(
                    load * inverse
                    for load, inverse in zip(loads[bin_index], inverse_caps[bin_index])
                )

        for item in order:
            for _ in range(item.count):
                placed = False
                for bin_index in sorted(range(self.num_bins), key=fullness):
                    if self._fits(loads[bin_index], item.size, bin_index):
                        for dim in range(len(self.capacity)):
                            loads[bin_index][dim] += item.size[dim]
                        assignment[item.name][bin_index] += 1
                        placed = True
                        break
                if not placed:
                    return None
        return {name: tuple(counts) for name, counts in assignment.items()}

    def _fits(self, load: Sequence[float], size: Sequence[float], bin_index: int) -> bool:
        capacity = self.bin_capacities[bin_index]
        return all(
            load[dim] + size[dim] <= capacity[dim] + self.tolerance
            for dim in range(len(self.capacity))
        )

    # ------------------------------------------------------------------ #
    # Exact search
    # ------------------------------------------------------------------ #
    def _search_order(
        self, items: Sequence[PackingItemType]
    ) -> list[PackingItemType]:
        """Item types in the canonical decreasing-size search order."""
        return sorted(
            (item for item in items if item.count > 0),
            key=lambda item: (max(item.size), item.count),
            reverse=True,
        )

    def _exact_search(self, items: Sequence[PackingItemType]) -> PackingResult:
        """Prove feasibility near the root with bin completion, then extract
        the branching search's canonical assignment under pruning.

        The completion engine (:mod:`repro.minlp._packcore`) decides
        feasibility by closing bins one at a time with maximal completions.
        A proven-infeasible verdict returns immediately.  A feasible verdict
        re-runs the branching search with a completion-based oracle that
        discards provably dead subtrees before they are entered -- pruning
        solution-free subtrees never changes which assignment the branching
        search reaches first, so the emitted packing is bit-identical to the
        plain branching search's at a fraction of the nodes.  An undecided
        verdict (engine node budget exhausted) falls back to the plain
        branching search, preserving its budget-exhaustion contract.
        """
        order = self._search_order(items)
        if not order:
            return self._exact_search_branching(items)
        sizes = [item.size for item in order]
        counts = [item.count for item in order]
        bin_caps = self.bin_capacities
        budget = self.max_backtrack_nodes
        tolerance = self.tolerance

        # Two bins: feasibility is a box query over sub-multiset load vectors
        # (whatever bin 0 receives, bin 1 gets the rest), decided exactly by
        # the meet-in-the-middle tables -- no search, no budget, and the same
        # tables answer every residual oracle query below.
        two_bin = None
        if self.num_bins == 2:
            size_matrix = np.array(sizes, dtype=float)
            two_bin = _packcore.two_bin_tables(size_matrix, np.array(counts, dtype=np.int64))
        # The filtered half-tables and residual demand depend only on the
        # residual count vector; the oracle probes each one under many load
        # states, so both are cached per (kernel index, remaining copies).
        filtered_cache: dict[tuple[int, int], tuple] = {}

        def decide(
            kernel_index: int,
            remaining: int,
            residual_counts: list[int],
            residual_caps: Sequence[Sequence[float]],
        ) -> int:
            """Exact verdict for a residual instance via the two-bin tables."""
            state = (kernel_index, remaining)
            entry = filtered_cache.get(state)
            if entry is None:
                vector = np.array(residual_counts, dtype=np.int64)
                entry = (_packcore.two_bin_filter(two_bin, vector), vector @ size_matrix)
                filtered_cache[state] = entry
            (sums_a, sums_b), residual_demand = entry
            lower = residual_demand - (np.array(residual_caps[1]) + tolerance)
            upper = np.array(residual_caps[0]) + tolerance
            return _packcore.two_bin_box_feasible(sums_a, sums_b, lower, upper)

        if two_bin is not None:
            verdict = decide(0, counts[0], counts, bin_caps)
            engine_nodes = 0
        else:
            # The root proof gets a slice of the node budget: an undecided
            # root falls back to the branching search with the FULL budget,
            # so the worst case stays bounded by roughly the historical cost
            # instead of doubling it on instances both searches find hard.
            root_budget = max(1, budget // 4)
            verdict, engine_nodes = _packcore.completion_feasible(
                sizes, counts, bin_caps, tolerance, root_budget
            )
        self.last_completion_nodes = engine_nodes
        if verdict == _packcore.INFEASIBLE:
            self.last_nodes = 0
            return PackingResult.infeasible(
                exact=True, nodes=0, completion_nodes=engine_nodes
            )
        if verdict == _packcore.UNDECIDED:
            return self._exact_search_branching(items)

        # Feasible: extract the canonical assignment.  The oracle relaxes the
        # mid-item bin restriction (CUs of the in-flight item may land in any
        # bin), so "infeasible" answers remain sound prunes while "feasible"
        # answers merely decline to prune.
        oracle_memo: dict[tuple, bool] = {}

        def oracle(kernel_index: int, remaining: int, loads: list[list[float]]) -> bool:
            key = (kernel_index, remaining, tuple(map(tuple, loads)))
            cached = oracle_memo.get(key)
            if cached is not None:
                return cached
            spent = self.last_completion_nodes
            if two_bin is None and spent >= 2 * budget:
                # Oracle budget drained: stop consulting.  Every answer from
                # here on would be "feasible", greedy witness or not.
                return True
            residual_counts = [0] * kernel_index + [remaining] + counts[kernel_index + 1 :]
            residual_caps = [
                [max(cap - load, 0.0) for cap, load in zip(cap_row, load_row)]
                for cap_row, load_row in zip(bin_caps, loads)
            ]
            # Most residual states along the canonical path pack greedily;
            # a found witness answers without the exact machinery.
            if _packcore.greedy_feasible(sizes, residual_counts, residual_caps, tolerance):
                oracle_memo[key] = True
                return True
            if two_bin is not None:
                answer = (
                    decide(kernel_index, remaining, residual_counts, residual_caps)
                    == _packcore.FEASIBLE
                )
                oracle_memo[key] = answer
                return answer
            sub_verdict, sub_nodes = _packcore.completion_feasible(
                sizes,
                residual_counts,
                residual_caps,
                tolerance,
                min(budget, 2 * budget - spent),
            )
            self.last_completion_nodes = spent + sub_nodes
            answer = sub_verdict != _packcore.INFEASIBLE
            oracle_memo[key] = answer
            return answer

        return self._exact_search_branching(items, oracle=oracle)

    def _exact_search_branching(
        self, items: Sequence[PackingItemType], oracle=None
    ) -> PackingResult:
        """Depth-first search over per-kernel distributions with pruning.

        Item types are processed in decreasing size order; for each type the
        search enumerates how many of its CUs go into each bin, bins visited
        left to right with the symmetry and slack pruning described in the
        module docstring.  The node budget bounds worst-case effort; if it is
        exhausted the result is reported as not proven exact.

        ``oracle(kernel_index, remaining, loads)`` (optional) may veto a
        recursion by returning ``False`` when the state is provably
        infeasible; it must never veto a state that has a completion.
        """
        order = self._search_order(items)
        num_items = len(order)
        dims = range(len(self.capacity))
        num_bins = self.num_bins
        tolerance = self.tolerance

        sizes = [item.size for item in order]
        # Per-dimension demand of item types i..end, computed once per search
        # (suffix[i] serves every node at depth i).
        suffix = [[0.0 for _ in dims]]
        for item in reversed(order):
            suffix.append([s + item.count * size for s, size in zip(suffix[-1], item.size)])
        suffix.reverse()
        positive = [[d for d in dims if size[d] > 0] for size in sizes]

        capacity_tol = [[c + tolerance for c in row] for row in self.bin_capacities]
        if self.uniform:
            total_capacity = [c * num_bins for c in self.capacity]
        else:
            # NumPy sums long columns pairwise, which rounds differently from
            # a running sum; the recorded minlp outcomes pin this rounding.
            total_capacity = np.array(self.bin_capacities, dtype=float).sum(axis=0).tolist()
        # Symmetry breaking between a bin and its predecessor is only valid
        # when the two bins are interchangeable, i.e. identically sized.
        same_caps_as_previous = [False] + [
            self.bin_capacities[b] == self.bin_capacities[b - 1] for b in range(1, num_bins)
        ]
        slack_tolerance = tolerance * num_bins
        loads = [[0.0 for _ in dims] for _ in range(num_bins)]
        total_load = [0.0 for _ in dims]
        assignment: dict[str, list[int]] = {item.name: [0] * num_bins for item in items}
        nodes = 0
        exhausted = False

        def place_kernel(kernel_index: int) -> bool:
            if kernel_index == num_items:
                return True
            return distribute(kernel_index, 0, order[kernel_index].count, math.inf, None)

        def distribute(
            kernel_index: int,
            bin_index: int,
            remaining: int,
            prev_count: float,
            prev_before: "list[float] | None",
        ) -> bool:
            nonlocal nodes, exhausted
            nodes += 1
            if nodes > self.max_backtrack_nodes:
                exhausted = True
                return False
            if remaining == 0:
                return place_kernel(kernel_index + 1)
            if bin_index == num_bins:
                return False
            size = sizes[kernel_index]
            load = loads[bin_index]
            load_before = list(load)
            max_here = remaining
            active = positive[kernel_index]
            if active:
                room = capacity_tol[bin_index]
                limit = min((room[d] - load_before[d]) / size[d] for d in active)
                if limit < remaining:  # guards the int() against inf for tiny sizes
                    max_here = int(math.floor(limit + 1e-12))
            max_here = max(0, max_here)
            # Symmetry: the previous bin is the same size and looked identical
            # before it received this item type, so only canonical
            # non-increasing counts are tried.
            if (
                prev_before is not None
                and same_caps_as_previous[bin_index]
                and load_before == prev_before
            ):
                max_here = min(max_here, int(prev_count))
            placed_here = assignment[order[kernel_index].name]
            later_demand = suffix[kernel_index + 1]
            # Try putting as many as possible first (consolidation bias), down to zero.
            for count in range(max_here, -1, -1):
                if count:
                    for d in dims:
                        placed = count * size[d]
                        load[d] += placed
                        total_load[d] += placed
                    placed_here[bin_index] += count
                left = remaining - count
                # Aggregate-slack pruning: everything still unplaced must fit
                # into the total remaining slack (O(dims) via the suffix sums).
                if all(
                    later_demand[d] + left * size[d]
                    <= total_capacity[d] - total_load[d] + slack_tolerance
                    for d in dims
                ) and (oracle is None or oracle(kernel_index, left, loads)):
                    if distribute(kernel_index, bin_index + 1, left, count, load_before):
                        return True
                if count:
                    for d in dims:
                        placed = count * size[d]
                        load[d] -= placed
                        total_load[d] -= placed
                    placed_here[bin_index] -= count
            return False

        feasible = place_kernel(0)
        self.last_nodes = nodes
        if feasible:
            return PackingResult(
                feasible=True,
                assignment={name: tuple(values) for name, values in assignment.items()},
                exact=True,
                nodes=nodes,
                completion_nodes=self.last_completion_nodes,
            )
        return PackingResult.infeasible(
            exact=not exhausted,
            nodes=nodes,
            completion_nodes=self.last_completion_nodes,
        )
