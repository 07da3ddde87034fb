"""Exact bisection solver for min-max-latency geometric programs.

The relaxed allocation problem of the paper (eqs. 14-18) has a special
structure: minimise ``II`` subject to

    N_k >= WCET_k / II           (latency coverage, eq. 15)
    N_k >= 1                     (at least one CU, eq. 16)
    sum_k N_k * w_{k,d} <= C_d   (one linear capacity constraint per
                                  resource kind and for bandwidth, eqs. 17-18)

For a fixed ``II`` the cheapest choice is ``N_k = max(1, WCET_k / II)``, and
the capacity usage is non-increasing in ``II``; hence feasibility is monotone
in ``II`` and the optimum can be found by bisection to machine precision.
:class:`VectorizedMinMaxProblem` runs that bisection over kernel-indexed
NumPy arrays, with optional per-kernel box bounds on ``N_k``.  The test
suite checks it against an independent LP formulation of the same program.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InfeasibleError


class VectorizedMinMaxProblem:
    """The min-max latency problem over a fixed kernel order.

    Built once per allocation problem and then solvable many times with
    different box bounds: a solve only supplies new ``min_counts`` /
    ``max_counts`` vectors while the WCET vector, the ``(D, K)`` weight
    matrix and the capacity vector are reused.
    """

    def __init__(
        self,
        names: Sequence[str],
        wcet: np.ndarray,
        weights: np.ndarray,
        capacity: np.ndarray,
    ):
        self.names = tuple(names)
        self.wcet = np.asarray(wcet, dtype=np.float64)
        self.weights = np.asarray(weights, dtype=np.float64).reshape(-1, len(self.names))
        self.capacity = np.asarray(capacity, dtype=np.float64)
        if self.wcet.size == 0:
            raise ValueError("the problem needs at least one kernel")
        if np.any(self.wcet <= 0):
            raise ValueError("every WCET must be positive")
        if np.any(self.capacity < 0):
            raise ValueError("capacities must be non-negative")
        if np.any(self.weights < 0):
            raise ValueError("capacity weights must be non-negative")
        # Work-conservation numerators (sum_k WCET_k * w_{k,d}) are constant
        # across solves, so the lower bound is a single division.
        self._work = self.weights @ self.wcet

    # ------------------------------------------------------------------ #
    # Core relations
    # ------------------------------------------------------------------ #
    def counts_for_ii(
        self, ii: float, min_counts: np.ndarray, max_counts: np.ndarray | None
    ) -> np.ndarray:
        """Cheapest fractional CU counts meeting a target initiation interval."""
        if ii <= 0:
            raise ValueError("II must be positive")
        counts = np.maximum(min_counts, self.wcet / ii)
        if max_counts is not None:
            counts = np.minimum(counts, max_counts)
        return counts

    def is_feasible_ii(
        self,
        ii: float,
        min_counts: np.ndarray,
        max_counts: np.ndarray | None,
        tolerance: float = 1e-9,
    ) -> bool:
        """Whether the cheapest counts for ``ii`` satisfy all capacities."""
        counts = self.counts_for_ii(ii, min_counts, max_counts)
        if max_counts is not None:
            if np.any(self.wcet / counts > ii * (1 + 1e-12) + tolerance):
                return False
        return bool(np.all(self.weights @ counts <= self.capacity + tolerance))

    def lower_bound(self) -> float:
        """A valid lower bound on the optimal II (work-conservation bound)."""
        positive = self.capacity > 0
        if not np.any(positive):
            return 0.0
        return float(max(0.0, np.max(self._work[positive] / self.capacity[positive])))

    # ------------------------------------------------------------------ #
    # Solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        min_counts: np.ndarray | None = None,
        max_counts: np.ndarray | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
    ) -> tuple[float, np.ndarray]:
        """Return the optimal ``(II, counts)`` pair by bisection.

        Raises
        ------
        InfeasibleError
            If even the minimum CU counts violate a capacity constraint.
        """
        if min_counts is None:
            min_counts = np.ones_like(self.wcet)
        if np.any(min_counts <= 0):
            raise ValueError("minimum CU counts must be positive")
        high = float(np.max(self.wcet / min_counts))
        if not self.is_feasible_ii(high, min_counts, max_counts):
            raise InfeasibleError(
                "minimum CU counts already exceed the platform capacity; "
                "the relaxed allocation problem is infeasible"
            )
        low = max(self.lower_bound(), 1e-12)
        if low > high:
            low = high
        for _ in range(max_iterations):
            if high - low <= tolerance * max(1.0, high):
                break
            mid = 0.5 * (low + high)
            if self.is_feasible_ii(mid, min_counts, max_counts):
                high = mid
            else:
                low = mid
        counts = self.counts_for_ii(high, min_counts, max_counts)
        return float(np.max(self.wcet / counts)), counts
