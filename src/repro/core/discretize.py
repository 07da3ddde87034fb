"""Second-step discretisation of the GP result (Section 3.2.2).

The GP step produces fractional totals ``N̂_k``.  Before allocation they must
become integers ``N_k``: the integer totals minimising the initiation interval
``max_k WCET_k / N_k`` subject to ``1 <= N_k <= cap_k`` (``cap_k`` from
:meth:`~repro.core.problem.AllocationProblem.max_total_cus`) and the
aggregated capacity constraints ``W @ N <= C`` (eqs. 17-18, with ``W >= 0``).

The paper enforces integrality with a floor/ceil branch and bound.  This
module solves the same problem exactly by a **threshold search** instead:

* for a threshold ``v``, ``N(v) = max(1, ceil(WCET / v))`` is the
  componentwise-smallest integer vector whose II is at most ``v``;
* any feasible ``N`` with II ``v`` dominates ``N(v)`` componentwise, and
  ``W >= 0``, so ``N(v)`` is feasible too -- feasibility of ``N(v)`` is
  monotone in ``v``;
* the II of an integer vector is always one of the candidates
  ``WCET_k / n`` (``n = 1..cap_k``), so the optimum is the smallest candidate
  whose ``N(v)`` is feasible, which a binary search over the sorted
  candidates finds with one ``W @ N`` per probe;
* a cap can be huge (a kernel that uses no resources fits 10**9 CUs), so
  when the caps allow many candidates the II bracket is first bisected on
  the same monotone test until few candidates remain inside it.

The result is II-optimal, like the paper's search; the two can differ only
in *which* II-optimal vector they return when several exist.  The threshold
search returns the componentwise-minimal one.

Whole results are **memoized** across calls keyed on the problem, because
design-space sweeps (e.g. the Figure 2 T-sweep) re-discretise the same
problem for every heuristic parameter.  A naive rounding fallback is also
provided for ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..memo import Memo, value_key
from .problem import AllocationProblem


@dataclass(frozen=True)
class DiscretizationResult:
    """Integer totals ``N_k`` together with the II they achieve."""

    counts: Mapping[str, int]
    ii: float
    proven_optimal: bool


class DiscretizationError(Exception):
    """Raised when no feasible integer totals exist."""


# --------------------------------------------------------------------------- #
# Cross-call memo: sweeps re-discretise identical GP optima many times
# --------------------------------------------------------------------------- #
_memo: "Memo[tuple, DiscretizationResult]" = Memo(512)


def discretization_cache_clear() -> None:
    """Empty the cross-call memo (used by tests and benchmarks)."""
    _memo.clear()


def _aggregate_feasible(problem: AllocationProblem, counts: Mapping[str, int]) -> bool:
    """Check the aggregated capacity constraints (eqs. 17-18) for integer totals."""
    arrays = problem.arrays()
    vector = arrays.vector(counts)
    return arrays.aggregate_feasible(vector, problem.num_fpgas)


def _achieved_ii(problem: AllocationProblem, counts: Mapping[str, int]) -> float:
    return max(problem.wcet[name] / counts[name] for name in problem.kernel_names)


_MAX_CANDIDATES = 4096


def _threshold_search(problem: AllocationProblem) -> np.ndarray:
    """Componentwise-minimal integer totals of minimum II (see module docstring)."""
    arrays = problem.arrays()
    wcet = arrays.wcet
    caps = np.maximum(1.0, np.asarray(arrays.max_total_cus, dtype=np.float64))
    capacity = arrays.aggregate_capacity + 1e-9

    def counts_for(threshold: float) -> np.ndarray | None:
        # The relative slack makes ``threshold = WCET_j / n_j`` give exactly
        # ``n_j`` despite the rounding of the two divisions.
        counts = np.maximum(1.0, np.ceil(wcet / threshold * (1.0 - 1e-12)))
        if np.any(counts > caps) or np.any(arrays.weights @ counts > capacity):
            return None
        return counts

    # The optimum lies in [low, high]: no vector within the caps has a lower
    # II than ``low``, and ``high`` is the II of one CU per kernel.
    low, high = float(np.max(wcet / caps)), float(np.max(wcet))
    best = counts_for(high)
    if best is None:
        raise DiscretizationError("even one CU per kernel exceeds the aggregate capacity")
    # Every candidate in [low, high] has ``floor(WCET / high) <= n <= ceil(WCET / low)``.
    # A cap can be huge (10**9 for a kernel that uses nothing), so bisect the
    # bracket until few candidates remain instead of listing all ``sum(caps)``.
    while True:
        first = np.maximum(1.0, np.floor(wcet / high))
        last = np.minimum(caps, np.ceil(wcet / low))
        middle = math.sqrt(low * high)
        few = np.sum(np.maximum(0.0, last - first + 1.0)) <= _MAX_CANDIDATES
        if few or not low < middle < high:
            break
        counts = counts_for(middle)
        if counts is None:
            low = middle
        else:
            high, best = middle, counts
    candidates = np.unique(
        np.concatenate([w / np.arange(a, b + 1) for w, a, b in zip(wcet, first, last)])
    )
    # Smallest feasible candidate; ``best = N(high)`` covers the optimum ``high``.
    low_index, high_index = 0, candidates.size
    while low_index < high_index:
        middle_index = (low_index + high_index) // 2
        counts = counts_for(float(candidates[middle_index]))
        if counts is None:
            low_index = middle_index + 1
        else:
            high_index, best = middle_index, counts
    return best


def discretize_counts(
    problem: AllocationProblem, *, use_cache: bool = True
) -> DiscretizationResult:
    """Exact discretisation of the GP step (Section 3.2.2).

    Returns the componentwise-minimal integer ``N_k >= 1`` minimising
    ``max_k WCET_k / N_k`` subject to the per-kernel caps and the aggregated
    capacity constraints.  The exact optimum does not depend on the GP's
    fractional totals, so unlike :func:`round_counts` it does not take them.
    ``use_cache=False`` bypasses the cross-call memo.

    Raises
    ------
    DiscretizationError
        If no feasible integer assignment exists.
    """
    memo_key = value_key(problem.pipeline, problem.platform) if use_cache else None
    if memo_key is not None:
        cached = _memo.get(memo_key)
        if cached is not None:
            return cached

    counts = problem.arrays().int_mapping(_threshold_search(problem))
    discretization = DiscretizationResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        proven_optimal=True,
    )
    if memo_key is not None:
        _memo.put(memo_key, discretization)
    return discretization


def round_counts(
    problem: AllocationProblem, counts_hat: Mapping[str, float]
) -> DiscretizationResult:
    """Naive discretisation: ceil everything, floor greedily until feasible.

    Kept as an ablation baseline for the exact discretiser: it is fast but
    can be noticeably worse when the capacity is tight.
    """
    names = problem.kernel_names
    counts = {name: max(1, int(math.ceil(counts_hat.get(name, 1.0) - 1e-9))) for name in names}

    def most_reducible() -> str | None:
        candidates = [name for name in names if counts[name] > 1]
        if not candidates:
            return None
        # Reducing the kernel whose ET after reduction stays smallest hurts II least.
        return min(candidates, key=lambda name: problem.wcet[name] / (counts[name] - 1))

    guard = sum(counts.values()) + 1
    while not _aggregate_feasible(problem, counts) and guard > 0:
        guard -= 1
        name = most_reducible()
        if name is None:
            raise DiscretizationError("cannot round the GP solution into the aggregate capacity")
        counts[name] -= 1
    if not _aggregate_feasible(problem, counts):
        raise DiscretizationError("cannot round the GP solution into the aggregate capacity")
    return DiscretizationResult(
        counts=counts,
        ii=_achieved_ii(problem, counts),
        proven_optimal=False,
    )
