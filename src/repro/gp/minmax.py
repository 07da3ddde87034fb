"""Closed-form solver for min-max-latency geometric programs.

The relaxed allocation problem of the paper (eqs. 14-18) has a special
structure: minimise ``II`` subject to

    N_k >= WCET_k / II           (latency coverage, eq. 15)
    N_k >= 1                     (at least one CU, eq. 16)
    sum_k N_k * w_{k,d} <= C_d   (one linear capacity constraint per
                                  resource kind and for bandwidth, eqs. 17-18)

For a fixed ``II`` the cheapest choice is ``N_k = max(lo_k, WCET_k / II)``,
so each capacity row's usage is non-increasing in ``II``.  Between the
sorted breakpoints ``t_k = WCET_k / lo_k`` it is ``A + B / II``: ``A`` sums
the kernels already at their minimum and ``B`` the work of the rest.  Each
row therefore reaches its capacity at ``B / (C - A)`` on exactly one segment,
and the optimum is the largest of those row thresholds and the cap floor
``max_k WCET_k / hi_k`` that optional per-kernel caps ``N_k <= hi_k`` impose.
The test suite checks :class:`VectorizedMinMaxProblem` against an
independent LP formulation of the same program and against a bisection.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Sequence

import numpy as np

from .errors import InfeasibleError

#: Absolute capacity slack of the feasibility test and of the optimum.
_TOL = 1e-9
#: Smallest II returned, for programs where no capacity row binds.
_MIN_II = 1e-12


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
        # The work-conservation bound (sum_k WCET_k * w_{k,d} / C_d) is
        # constant across solves.
        positive = self.capacity > 0
        work = (self.weights @ self.wcet)[positive]
        self._lower_bound = float(np.max(work / self.capacity[positive], initial=0.0))
        # Plain-float copies for the closed form's per-row scans.
        self._wcet_list = self.wcet.tolist()
        self._weight_rows = self.weights.tolist()
        self._room_list = (self.capacity + _TOL).tolist()

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
        self, ii: float, min_counts: np.ndarray, max_counts: np.ndarray | None
    ) -> bool:
        """Whether the cheapest counts for ``ii`` satisfy all capacities."""
        counts = self.counts_for_ii(ii, min_counts, max_counts)
        if max_counts is not None:
            if np.any(self.wcet / counts > ii * (1 + 1e-12) + _TOL):
                return False
        return bool(np.all(self.weights @ counts <= self.capacity + _TOL))

    def lower_bound(self) -> float:
        """A valid lower bound on the optimal II (work-conservation bound)."""
        return self._lower_bound

    # ------------------------------------------------------------------ #
    # Solve
    # ------------------------------------------------------------------ #
    def solve(
        self,
        min_counts: np.ndarray | None = None,
        max_counts: np.ndarray | None = None,
    ) -> tuple[float, np.ndarray]:
        """Return the optimal ``(II, counts)`` pair in closed form.

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
        floor = max(self._lower_bound, _MIN_II)
        lowest = min_counts
        if max_counts is not None:
            floor = max(floor, float(np.max(self.wcet / max_counts)))
            lowest = np.minimum(min_counts, max_counts)
        ii = min(max(self._row_threshold(lowest.tolist()), floor), high)
        counts = self.counts_for_ii(ii, min_counts, max_counts)
        return float(np.max(self.wcet / counts)), counts

    def _row_threshold(self, lowest: list[float]) -> float:
        """Smallest II at which every capacity row fits, caps aside.

        Segment ``j`` of the sorted breakpoints spans ``[t_(j-1), t_(j)]``
        (``t_(-1) = 0``, ``t_(K) = inf``); on it the first ``j`` kernels sit
        at ``lowest`` (usage ``fixed``) and the rest at ``WCET / II`` (usage
        ``scaled / II``).  The lowest segment whose answer
        ``scaled / (C + tol - fixed)`` lies at or below its top holds the
        row's threshold, clamped to the segment's bottom.  At ``K <= 20``
        kernels and a few rows, plain floats beat array calls.
        """
        wcet = self._wcet_list
        breakpoints = [time / low for time, low in zip(wcet, lowest)]
        order = sorted(range(len(wcet)), key=breakpoints.__getitem__)
        tops = [breakpoints[kernel] for kernel in order] + [math.inf]
        bottoms = [0.0] + tops[:-1]
        threshold = 0.0
        for row, room in zip(self._weight_rows, self._room_list):
            fixed = [0.0, *accumulate(row[kernel] * lowest[kernel] for kernel in order)]
            scaled = [*accumulate(row[kernel] * wcet[kernel] for kernel in reversed(order))]
            scaled = scaled[::-1] + [0.0]
            for top, bottom, used, work in zip(tops, bottoms, fixed, scaled):
                left = room - used
                if left > 0 and work / left <= top:
                    threshold = max(threshold, work / left, bottom)
                    break
            else:
                return math.inf
        return threshold
