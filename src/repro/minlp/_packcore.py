"""Bin-completion feasibility core of the vector bin packer.

The algorithm answers one question: can ``counts[k]`` copies of the size
vector ``sizes[k]`` be packed into bins with capacity rows ``caps``?  It is
the Korf-style *bin-completion* formulation of the search in
:mod:`repro.minlp.binpacking`: instead of branching item-by-item over bins,
bins are closed one at a time, each receiving a **maximal** feasible
completion (a per-item count vector to which no further item can be added).
Restricting to maximal completions is sound and complete for feasibility:
packing is monotone in the remaining-item vector, so bumping any bin's
content up to a maximal superset only shrinks the residual problem.

Pruning, in the order it is applied at each bin:

* **aggregate slack** -- everything still unplaced must fit into the summed
  capacity of the bins not yet closed (suffix sums, computed once);
* **dominated-state store** -- a bounded ring of proven-infeasible states
  ``(bin, remaining)``; a query with at least as many remaining items and at
  most as many remaining bins (the open bins are a suffix, hence a subset)
  is infeasible without search;
* **largest-item rule** -- when every open bin has the same capacity row the
  bins are interchangeable, so the current bin can be assumed to receive at
  least one copy of the largest remaining item (swap whole bin contents);
* a **node budget**, after which the verdict is "undecided" and the caller
  falls back to the branching search, preserving its budget contract.

The search and the greedy witness run on plain Python lists: one recursive
call per (bin, item) decision.  The two-bin meet-in-the-middle tables below
are genuinely vectorised and stay on NumPy.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from operator import ge
from typing import Sequence

import numpy as np

#: Verdicts returned by :func:`completion_feasible`.
FEASIBLE = 1
INFEASIBLE = -1
UNDECIDED = 0

#: Rows in the proven-infeasible state ring (per call; linear scan).
_STORE_ROWS = 256


class _BudgetExhausted(Exception):
    """Unwinds the completion search once its node budget is spent."""


def completion_feasible(
    sizes: Sequence[Sequence[float]],
    counts: Sequence[int],
    caps: Sequence[Sequence[float]],
    tolerance: float,
    budget: int,
) -> tuple[int, int]:
    """Bin-completion feasibility of packing ``counts`` items into ``caps``.

    ``sizes``: one size row per item type, largest first; ``counts``: the
    remaining copies per type; ``caps``: one residual capacity row per bin.
    Returns ``(verdict, nodes)`` with verdict one of :data:`FEASIBLE`,
    :data:`INFEASIBLE` (proven) or :data:`UNDECIDED` (budget exhausted).
    The search recurses once per (bin, item) decision, so it is at most
    ``bins * (item types + 1)`` calls deep: the same order as the branching
    search's ``item types * (bins + 1)``.
    """
    sizes = [[float(s) for s in row] for row in sizes]
    remaining = [int(c) for c in counts]
    caps = [[float(c) for c in row] for row in caps]
    num_items = len(sizes)
    num_bins = len(caps)
    remaining_total = sum(remaining)
    if remaining_total == 0:
        return FEASIBLE, 0
    if num_bins == 0:
        return INFEASIBLE, 0
    dims = range(len(caps[0]))
    tol = float(tolerance)

    # Per-dimension demand of everything still unplaced, kept incrementally.
    demand = [0.0 for _ in dims]
    for count, size in zip(remaining, sizes):
        for d in dims:
            demand[d] += count * size[d]
    # ``room[b][d] - loads[b][d]`` is bin b's residual capacity (tolerance
    # included).  ``slack_bound[b]`` is what the bins after b can absorb:
    # their summed capacity plus one tolerance per open bin.
    room = [[c + tol for c in row] for row in caps]
    slack_bound: list = [None] * num_bins
    suffix = [0.0 for _ in dims]
    for b in range(num_bins - 1, -1, -1):
        slack_bound[b] = [suffix[d] + tol * (num_bins - b) for d in dims]
        suffix = [suffix[d] + caps[b][d] for d in dims]
    # identical[b]: every bin from b on has bin b's capacity row.
    identical = [True] * num_bins
    for b in range(num_bins - 2, -1, -1):
        identical[b] = identical[b + 1] and caps[b] == caps[b + 1]

    loads = [[0.0 for _ in dims] for _ in range(num_bins)]
    store: deque = deque(maxlen=_STORE_ROWS)  # proven-infeasible (bin, remaining)
    nodes = 0

    def visit(b: int, i: int) -> bool:
        """Decide item ``i``'s copies in bin ``b`` (``i == K``: close bin b).

        Copy counts are enumerated in a balanced zigzag: start from the even
        split across the open bins, walk up to the fit limit, then down to
        the lower bound.  Feasible witnesses of balance-placement workloads
        sit near the even split, so they surface orders of magnitude sooner
        than under the lexicographic-maximum order.
        """
        nonlocal nodes, remaining_total
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        if i == 0:
            if b == num_bins:
                return False
            for stored_bin, stored in store:
                if stored_bin <= b and all(map(ge, remaining, stored)):
                    return False
        load = loads[b]
        room_b = room[b]
        if i == num_items:
            # Completion of bin b chosen; keep only maximal completions.
            for k in range(num_items):
                if remaining[k] > 0 and all(
                    s <= r - l for s, r, l in zip(sizes[k], room_b, load)
                ):
                    return False
            return visit(b + 1, 0)
        # Slack prune: of the unplaced demand, at most the open bin's
        # residual can still land in bin b; the rest must fit into the later
        # bins.  At a fresh bin this is the plain aggregate bound;
        # mid-completion it sharpens as the bin fills up.
        bound = slack_bound[b]
        for d in dims:
            if demand[d] - (room_b[d] - load[d]) > bound[d]:
                return False
        # How many copies of item i go into bin b.
        size = sizes[i]
        hi = remaining[i]
        if hi > 0:
            for d in dims:
                s = size[d]
                if s > 0.0:
                    limit = (room_b[d] - load[d]) / s
                    if limit < hi:
                        fit = int(math.floor(limit + 1e-12))
                        if fit < hi:
                            hi = fit
            if hi < 0:
                hi = 0
        # All open bins identical AND this bin still empty: the largest
        # remaining item can be assumed to land here (whole-bin exchange).
        # Once the bin holds load the exchange would have to move the
        # committed items too, so the rule only applies while the
        # completion is all zero-size.
        lo = int(
            identical[b] and remaining[i] > 0 and not any(load) and not any(remaining[:i])
        )
        if hi < lo:
            if i == 0:
                store.append((b, tuple(remaining)))
            return False
        open_bins = num_bins - b
        start = min(max((remaining[i] + open_bins - 1) // open_bins, lo), hi)
        for count in chain(range(start, hi + 1), range(start - 1, lo - 1, -1)):
            if count:
                remaining[i] -= count
                remaining_total -= count
                for d in dims:
                    load[d] += count * size[d]
                    demand[d] -= count * size[d]
                if remaining_total == 0:
                    return True
            after = i + 1
            while after < num_items and remaining[after] == 0:
                after += 1
            if visit(b, after):
                return True
            if count:
                remaining[i] += count
                remaining_total += count
                for d in dims:
                    load[d] -= count * size[d]
                    demand[d] += count * size[d]
        if i == 0:
            # All completions of bin b exhausted for this state.
            store.append((b, tuple(remaining)))
        return False

    try:
        verdict = FEASIBLE if visit(0, 0) else INFEASIBLE
    except _BudgetExhausted:
        verdict = UNDECIDED
    return verdict, nodes


def greedy_feasible(
    sizes: Sequence[Sequence[float]],
    counts: Sequence[int],
    caps: Sequence[Sequence[float]],
    tolerance: float,
) -> bool:
    """Most-slack-first greedy packing; True proves feasibility, False says
    nothing.  Cheap witness check for the oracle's nearly-packed residual
    states, sparing a full completion search.

    Each copy goes to the fitting bin with the largest summed residual
    (the first such bin on ties).
    """
    rooms = [[c + tolerance for c in row] for row in caps]
    loads = [[0.0] * len(row) for row in caps]
    for size, count in zip(sizes, counts):
        for _ in range(count):
            best = None
            best_slack = -1.0
            for load, room in zip(loads, rooms):
                slack = 0.0
                for s, r, l in zip(size, room, load):
                    residual = r - l
                    if s > residual:
                        break
                    slack += residual
                else:
                    if slack > best_slack:
                        best = load
                        best_slack = slack
            if best is None:
                return False
            for d, s in enumerate(size):
                best[d] += s
    return True


#: Per-half row cap of the two-bin meet-in-the-middle tables.  Beyond this the
#: decider declines (``two_bin_tables`` returns ``None``) and the caller uses
#: the completion engine instead.
_TWO_BIN_MAX_ROWS = 200_000

#: Rows of the first half combined per vectorised pairing step.
_TWO_BIN_CHUNK = 1024


class TwoBinTables:
    """Precomputed sub-multiset enumeration for the two-bin decider.

    The item types are split into two halves with balanced enumeration sizes;
    for each half every count sub-vector ``0 <= x <= counts`` is tabulated
    together with its load vector ``x @ sizes``.  The tables depend only on
    the item multiset, so one instance serves the root query and every
    residual oracle query of a pack call.
    """

    __slots__ = ("index_a", "index_b", "counts_a", "counts_b", "sums_a", "sums_b")

    def __init__(self, index_a, index_b, counts_a, counts_b, sums_a, sums_b):
        self.index_a = index_a
        self.index_b = index_b
        self.counts_a = counts_a
        self.counts_b = counts_b
        self.sums_a = sums_a
        self.sums_b = sums_b


def _half_table(sizes: np.ndarray, counts: np.ndarray, index: np.ndarray):
    """All count sub-vectors over ``index`` with their load vectors."""
    if index.size == 0:
        return (
            np.zeros((1, 0), dtype=np.int64),
            np.zeros((1, sizes.shape[1])),
        )
    grids = np.meshgrid(*[np.arange(counts[k] + 1) for k in index], indexing="ij")
    vectors = np.stack([grid.ravel() for grid in grids], axis=1).astype(np.int64)
    return vectors, vectors @ sizes[index]


def two_bin_tables(
    sizes: np.ndarray,
    counts: np.ndarray,
    max_rows: int = _TWO_BIN_MAX_ROWS,
) -> "TwoBinTables | None":
    """Meet-in-the-middle tables for two-bin feasibility, or ``None``.

    With two bins a packing is determined by the sub-multiset sent to the
    first bin, so feasibility is a box query over sub-multiset load vectors.
    Item types are split greedily (largest enumeration factor first, onto the
    currently smaller half) to balance the two table sizes; when either half
    would still exceed ``max_rows`` the instance is too large for tabulation
    and the caller should fall back to the completion engine.
    """
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    factors = [(int(counts[k]) + 1, k) for k in range(counts.shape[0])]
    factors.sort(key=lambda pair: (-pair[0], pair[1]))
    half_a: list[int] = []
    half_b: list[int] = []
    rows_a = rows_b = 1
    for factor, k in factors:
        if rows_a <= rows_b:
            half_a.append(k)
            rows_a *= factor
        else:
            half_b.append(k)
            rows_b *= factor
    if rows_a > max_rows or rows_b > max_rows:
        return None
    index_a = np.array(sorted(half_a), dtype=np.int64)
    index_b = np.array(sorted(half_b), dtype=np.int64)
    counts_a, sums_a = _half_table(sizes, counts, index_a)
    counts_b, sums_b = _half_table(sizes, counts, index_b)
    return TwoBinTables(index_a, index_b, counts_a, counts_b, sums_a, sums_b)


def two_bin_filter(
    tables: TwoBinTables, residual_counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Load vectors of the sub-multisets available under ``residual_counts``.

    The filtered pair depends only on the residual count vector, not on the
    bin loads, so callers probing many load states of the same residual
    (the branching search's oracle) can cache it.
    """
    residual_counts = np.asarray(residual_counts, dtype=np.int64)
    mask_a = np.all(tables.counts_a <= residual_counts[tables.index_a], axis=1)
    mask_b = np.all(tables.counts_b <= residual_counts[tables.index_b], axis=1)
    return tables.sums_a[mask_a], tables.sums_b[mask_b]


def two_bin_box_feasible(
    sums_a: np.ndarray,
    sums_b: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> int:
    """Does some pair ``a + b`` land inside ``[lower, upper]`` componentwise?

    With ``sums_a, sums_b`` from :func:`two_bin_filter` and the two bins'
    residual capacities (and tolerance) folded into the box, this is exact
    two-bin feasibility: :data:`FEASIBLE` or :data:`INFEASIBLE`, never out
    of budget, since the tables hold the full enumeration.
    """
    # A half alone must stay under the upper box edge (the other half only
    # adds load); this screens most rows before the pairwise combination.
    sums_a = sums_a[np.all(sums_a <= upper, axis=1)]
    sums_b = sums_b[np.all(sums_b <= upper, axis=1)]
    if sums_a.shape[0] == 0 or sums_b.shape[0] == 0:
        return INFEASIBLE
    for begin in range(0, sums_a.shape[0], _TWO_BIN_CHUNK):
        chunk = sums_a[begin : begin + _TWO_BIN_CHUNK]
        combined = chunk[:, None, :] + sums_b[None, :, :]
        hits = np.all((combined >= lower) & (combined <= upper), axis=2)
        if np.any(hits):
            return FEASIBLE
    return INFEASIBLE


def resolve_backend() -> str:
    """The packer backend's name, constant ``"numpy"``: perfbench's
    environment stamp is its only caller."""
    return "numpy"
