"""Bin-completion feasibility core, compiled when numba is available.

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

The function body is written in nopython-compatible style (explicit stack,
preallocated arrays, no Python containers) so the *same source* runs as the
pure-NumPy reference implementation and, when numba is installed, as an
``@njit``-compiled kernel.  The compiled kernel runs whenever numba
imports; the entry points' ``backend`` argument (``auto`` | ``numba`` |
``numpy``) lets the parity tests pin either one.

Parity between the two is guaranteed by construction (one source) and
asserted by ``tests/test_packer_backends.py`` on hosts that have numba.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

#: Verdicts returned by :func:`completion_feasible`.
FEASIBLE = 1
INFEASIBLE = -1
UNDECIDED = 0

#: Rows in the proven-infeasible state ring (per call; linear scan).
_STORE_ROWS = 256


def _completion_feasible_impl(sizes, counts, caps, tol, budget, store_rows):
    """Return ``(verdict, nodes)`` for packing ``counts`` items into ``caps``.

    ``sizes``: (K, D) float64, one row per item type, largest first.
    ``counts``: (K,) int64 remaining copies per type.
    ``caps``: (F, D) float64 residual capacity rows, one per bin.
    Verdict: +1 feasible, -1 proven infeasible, 0 node budget exhausted.
    """
    K = sizes.shape[0]
    D = sizes.shape[1]
    F = caps.shape[0]

    remaining_total = 0
    for k in range(K):
        remaining_total += counts[k]
    if remaining_total == 0:
        return FEASIBLE, 0
    if F == 0:
        return INFEASIBLE, 0

    # Per-dimension demand of everything still unplaced, kept incrementally.
    demand = np.zeros(D)
    for k in range(K):
        for d in range(D):
            demand[d] += counts[k] * sizes[k, d]

    # Capacity suffix sums and "all open bins identical" flags, once per call.
    suffix_caps = np.zeros((F + 1, D))
    for b in range(F - 1, -1, -1):
        for d in range(D):
            suffix_caps[b, d] = suffix_caps[b + 1, d] + caps[b, d]
    identical_suffix = np.zeros(F, dtype=np.bool_)
    identical_suffix[F - 1] = True
    for b in range(F - 2, -1, -1):
        same = identical_suffix[b + 1]
        if same:
            for d in range(D):
                if caps[b, d] != caps[b + 1, d]:
                    same = False
                    break
        identical_suffix[b] = same

    # Ring buffer of proven-infeasible (bin, remaining-counts) states.
    store = np.zeros((store_rows, K + 1), dtype=np.int64)
    store_count = 0
    store_next = 0

    r = counts.astype(np.int64).copy()
    loads = np.zeros((F, D))

    # Explicit DFS stack: one frame per (bin, item) decision.  A frame with
    # item index K is the completed-completion checkpoint; it morphs in place
    # into the next bin's entry frame when the completion is maximal.
    #
    # Counts are enumerated in a balanced zigzag: start from the even split
    # across the open bins, walk up to the fit limit, then down to the lower
    # bound.  Feasible witnesses of balance-placement workloads sit near the
    # even split, so they surface orders of magnitude sooner than under the
    # lexicographic-maximum order; exhaustive enumeration (and hence every
    # verdict) is unchanged, only the visiting order differs.
    max_frames = F * (K + 1) + 2
    frame_bin = np.zeros(max_frames, dtype=np.int64)
    frame_item = np.zeros(max_frames, dtype=np.int64)
    frame_count = np.zeros(max_frames, dtype=np.int64)
    frame_lo = np.zeros(max_frames, dtype=np.int64)
    frame_hi = np.zeros(max_frames, dtype=np.int64)
    frame_start = np.zeros(max_frames, dtype=np.int64)
    frame_up = np.zeros(max_frames, dtype=np.bool_)

    nodes = 0
    sp = 0
    frame_bin[0] = 0
    frame_item[0] = 0
    descend = True  # False: resuming frame sp after a failed child subtree

    while sp >= 0:
        b = frame_bin[sp]
        i = frame_item[sp]
        if descend:
            nodes += 1
            if nodes > budget:
                return UNDECIDED, nodes
            if i == 0:
                if b == F:
                    descend = False
                    sp -= 1
                    continue
                # Dominated by a recorded infeasible state?
                pruned = False
                for s in range(store_count):
                    if store[s, 0] <= b:
                        dominated = True
                        for k in range(K):
                            if r[k] < store[s, k + 1]:
                                dominated = False
                                break
                        if dominated:
                            pruned = True
                            break
                if pruned:
                    descend = False
                    sp -= 1
                    continue
            if i < K:
                # Slack prune: of the unplaced demand, at most the open bin's
                # residual can still land in bin b; the rest must fit into the
                # later bins.  At a fresh bin this is the plain aggregate
                # bound; mid-completion it sharpens as the bin fills up.
                pruned = False
                for d in range(D):
                    leftover = demand[d] - (caps[b, d] + tol - loads[b, d])
                    if leftover > suffix_caps[b + 1, d] + tol * (F - b):
                        pruned = True
                        break
                if pruned:
                    descend = False
                    sp -= 1
                    continue
            if i == K:
                # Completion of bin b chosen; keep only maximal completions.
                maximal = True
                for k in range(K):
                    if r[k] > 0:
                        fits = True
                        for d in range(D):
                            if sizes[k, d] > caps[b, d] + tol - loads[b, d]:
                                fits = False
                                break
                        if fits:
                            maximal = False
                            break
                if not maximal:
                    descend = False
                    sp -= 1
                    continue
                frame_bin[sp] = b + 1
                frame_item[sp] = 0
                continue
            # Choice frame: how many copies of item i go into bin b.
            hi = r[i]
            if hi > 0:
                for d in range(D):
                    s = sizes[i, d]
                    if s > 0.0:
                        limit = (caps[b, d] + tol - loads[b, d]) / s
                        if limit < hi:
                            fit = int(math.floor(limit + 1e-12))
                            if fit < hi:
                                hi = fit
                if hi < 0:
                    hi = 0
            lo = 0
            if identical_suffix[b]:
                # All open bins identical AND this bin still empty: the
                # largest remaining item can be assumed to land here
                # (whole-bin exchange argument).  Once the bin holds load the
                # exchange would have to move the committed items too, so the
                # rule only applies while the completion is all zero-size.
                empty = True
                for d in range(D):
                    if loads[b, d] != 0.0:
                        empty = False
                        break
                if empty:
                    first = -1
                    for k in range(K):
                        if r[k] > 0:
                            first = k
                            break
                    if first == i:
                        lo = 1
            if hi < lo:
                if i == 0 and store_rows > 0:
                    store[store_next, 0] = b
                    for k in range(K):
                        store[store_next, k + 1] = r[k]
                    store_next = (store_next + 1) % store_rows
                    if store_count < store_rows:
                        store_count += 1
                descend = False
                sp -= 1
                continue
            start = (r[i] + (F - b) - 1) // (F - b)  # even split over open bins
            if start > hi:
                start = hi
            if start < lo:
                start = lo
            frame_lo[sp] = lo
            frame_hi[sp] = hi
            frame_start[sp] = start
            frame_count[sp] = start
            frame_up[sp] = True
        else:
            # A child subtree failed: undo the current choice, zigzag on.
            c = frame_count[sp]
            if c > 0:
                r[i] += c
                remaining_total += c
                for d in range(D):
                    loads[b, d] -= c * sizes[i, d]
                    demand[d] += c * sizes[i, d]
            advanced = False
            if frame_up[sp]:
                if c + 1 <= frame_hi[sp]:
                    frame_count[sp] = c + 1
                    advanced = True
                else:
                    frame_up[sp] = False
                    c = frame_start[sp]
            if not advanced and not frame_up[sp]:
                if c - 1 >= frame_lo[sp]:
                    frame_count[sp] = c - 1
                    advanced = True
            if not advanced:
                if i == 0 and store_rows > 0:
                    # All completions of bin b exhausted for this state.
                    store[store_next, 0] = b
                    for k in range(K):
                        store[store_next, k + 1] = r[k]
                    store_next = (store_next + 1) % store_rows
                    if store_count < store_rows:
                        store_count += 1
                sp -= 1
                continue
            descend = True
        # Apply the current choice and descend into the next decision.
        c = frame_count[sp]
        if c > 0:
            r[i] -= c
            remaining_total -= c
            for d in range(D):
                loads[b, d] += c * sizes[i, d]
                demand[d] -= c * sizes[i, d]
            if remaining_total == 0:
                return FEASIBLE, nodes
        nxt = i + 1
        while nxt < K and r[nxt] == 0:
            nxt += 1
        sp += 1
        frame_bin[sp] = b
        frame_item[sp] = nxt
    return INFEASIBLE, nodes


def _greedy_feasible_impl(sizes, counts, caps, tol):
    """Most-slack-first greedy packing; True proves feasibility, False says
    nothing.  Cheap witness check for the oracle's nearly-packed residual
    states, sparing a full completion search."""
    K = sizes.shape[0]
    D = sizes.shape[1]
    F = caps.shape[0]
    loads = np.zeros((F, D))
    for i in range(K):
        for _ in range(counts[i]):
            best = -1
            best_slack = -1.0
            for b in range(F):
                fits = True
                slack = 0.0
                for d in range(D):
                    residual = caps[b, d] + tol - loads[b, d]
                    if sizes[i, d] > residual:
                        fits = False
                        break
                    slack += residual
                if fits and slack > best_slack:
                    best = b
                    best_slack = slack
            if best < 0:
                return False
            for d in range(D):
                loads[best, d] += sizes[i, d]
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
    """Does some pair ``a + b`` land inside ``[lower, upper]`` componentwise?"""
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


def two_bin_feasible(
    tables: TwoBinTables,
    residual_counts: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> int:
    """Exact two-bin feasibility: :data:`FEASIBLE` or :data:`INFEASIBLE`.

    Decides whether some sub-multiset ``x <= residual_counts`` has a load
    vector within ``[lower, upper]`` componentwise -- the caller folds the
    two bins' residual capacities (and tolerance) into the box.  Unlike the
    search engines this never runs out of budget: the tables already hold
    the full enumeration, so every answer is a proof.
    """
    sums_a, sums_b = two_bin_filter(tables, residual_counts)
    return two_bin_box_feasible(sums_a, sums_b, lower, upper)


_COMPILED: "Callable | None" = None
_COMPILED_GREEDY: "Callable | None" = None
_NUMBA_CHECKED = False
_NUMBA_OK = False


def numba_available() -> bool:
    """True when numba imports (checked once, lazily)."""
    global _NUMBA_CHECKED, _NUMBA_OK
    if not _NUMBA_CHECKED:
        try:
            import numba  # noqa: F401

            _NUMBA_OK = True
        except Exception:
            _NUMBA_OK = False
        _NUMBA_CHECKED = True
    return _NUMBA_OK


def _compiled_kernel() -> Callable:
    global _COMPILED
    if _COMPILED is None:
        import numba

        _COMPILED = numba.njit(cache=False)(_completion_feasible_impl)
    return _COMPILED


def _compiled_greedy() -> Callable:
    global _COMPILED_GREEDY
    if _COMPILED_GREEDY is None:
        import numba

        _COMPILED_GREEDY = numba.njit(cache=False)(_greedy_feasible_impl)
    return _COMPILED_GREEDY


def resolve_backend(name: "str | None" = None) -> str:
    """Resolve the packer backend: ``numba`` or ``numpy``.

    ``None`` and ``auto`` pick numba when it imports and NumPy otherwise;
    ``numba`` and ``numpy`` pin one (the parity tests' hook).
    """
    if name is None or name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba":
        if not numba_available():
            raise RuntimeError("backend 'numba' requested but numba is not importable")
        return "numba"
    if name == "numpy":
        return "numpy"
    raise ValueError(f"unknown packer backend {name!r}; use auto, numba or numpy")


def completion_feasible(
    sizes: np.ndarray,
    counts: np.ndarray,
    caps: np.ndarray,
    tolerance: float,
    budget: int,
    backend: "str | None" = None,
) -> tuple[int, int]:
    """Bin-completion feasibility of packing ``counts`` items into ``caps``.

    Returns ``(verdict, nodes)`` with verdict one of :data:`FEASIBLE`,
    :data:`INFEASIBLE` (proven) or :data:`UNDECIDED` (budget exhausted).
    """
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    if sizes.ndim != 2 or caps.ndim != 2 or counts.ndim != 1:
        raise ValueError("sizes/caps must be 2-D and counts 1-D")
    if sizes.shape[0] != counts.shape[0] or sizes.shape[1] != caps.shape[1]:
        raise ValueError("inconsistent item/bin dimensions")
    kernel = (
        _compiled_kernel()
        if resolve_backend(backend) == "numba"
        else _completion_feasible_impl
    )
    verdict, nodes = kernel(
        sizes, counts, caps, float(tolerance), int(budget), _STORE_ROWS
    )
    return int(verdict), int(nodes)


def greedy_feasible(
    sizes: np.ndarray,
    counts: np.ndarray,
    caps: np.ndarray,
    tolerance: float,
    backend: "str | None" = None,
) -> bool:
    """True when the most-slack-first greedy packs the instance (a witness);
    False proves nothing."""
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    kernel = (
        _compiled_greedy()
        if resolve_backend(backend) == "numba"
        else _greedy_feasible_impl
    )
    return bool(kernel(sizes, counts, caps, float(tolerance)))
