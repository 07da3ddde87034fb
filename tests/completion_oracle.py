"""The explicit-stack bin-completion engine and greedy witness, as a reference.

This is the packer core in the form it had before it moved onto Python
lists: one source written in nopython style (an explicit stack of frame
arrays, preallocated NumPy buffers, no Python containers).  It is kept,
unchanged, as the oracle of ``tests/test_packer_backends.py``: the list
engine in :mod:`repro.minlp._packcore` must return the same
``(verdict, nodes)`` pair and the same greedy verdict on every instance,
because both visit the same nodes in the same order.
"""

from __future__ import annotations

import math

import numpy as np

from repro.minlp._packcore import FEASIBLE, INFEASIBLE, UNDECIDED

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


def completion_feasible(sizes, counts, caps, tolerance, budget) -> tuple[int, int]:
    """``(verdict, nodes)`` of the explicit-stack engine on array inputs."""
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    verdict, nodes = _completion_feasible_impl(
        sizes, counts, caps, float(tolerance), int(budget), _STORE_ROWS
    )
    return int(verdict), int(nodes)


def greedy_feasible(sizes, counts, caps, tolerance) -> bool:
    """The explicit-loop greedy witness on array inputs."""
    sizes = np.ascontiguousarray(sizes, dtype=np.float64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    caps = np.ascontiguousarray(caps, dtype=np.float64)
    return bool(_greedy_feasible_impl(sizes, counts, caps, float(tolerance)))
