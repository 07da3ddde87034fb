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
This provides an *exact* reference optimum used to validate the general GP
backends, and a very fast default path for the heuristic's first step.

Two implementations share that algorithm:

* :class:`MinMaxLatencyProblem` -- the original name-keyed scalar solver,
  kept as the cross-check reference backend;
* :class:`VectorizedMinMaxProblem` -- the kernel-indexed NumPy form used by
  the GP step's hot path.  It runs the *same* bisection with the same
  bracket and update sequence, so the two agree to the bisection tolerance,
  and it accepts box bounds and a ``lower_hint`` so a branch-and-bound child
  node can warm-start from its parent's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import InfeasibleError


@dataclass(frozen=True)
class CapacityConstraint:
    """One linear capacity constraint ``sum_k N_k * weight_k <= capacity``."""

    name: str
    weights: Mapping[str, float]
    capacity: float

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        if any(weight < 0 for weight in self.weights.values()):
            raise ValueError("capacity weights must be non-negative")

    def usage(self, counts: Mapping[str, float]) -> float:
        """Capacity consumed by the given CU counts."""
        return sum(self.weights.get(name, 0.0) * counts.get(name, 0.0) for name in self.weights)

    def is_satisfied(self, counts: Mapping[str, float], tolerance: float = 1e-9) -> bool:
        return self.usage(counts) <= self.capacity + tolerance


@dataclass(frozen=True)
class MinMaxLatencyProblem:
    """The min-max latency problem solved by the GP step of the heuristic."""

    wcet: Mapping[str, float]
    min_counts: Mapping[str, float]
    capacities: Sequence[CapacityConstraint]
    max_counts: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if not self.wcet:
            raise ValueError("the problem needs at least one kernel")
        for name, value in self.wcet.items():
            if value <= 0:
                raise ValueError(f"WCET of {name!r} must be positive")
        for name in self.wcet:
            if self.min_counts.get(name, 1.0) <= 0:
                raise ValueError(f"minimum CU count of {name!r} must be positive")

    # ------------------------------------------------------------------ #
    # Core relations
    # ------------------------------------------------------------------ #
    def counts_for_ii(self, ii: float) -> dict[str, float]:
        """Cheapest fractional CU counts meeting a target initiation interval."""
        if ii <= 0:
            raise ValueError("II must be positive")
        counts: dict[str, float] = {}
        for name, wcet in self.wcet.items():
            count = max(self.min_counts.get(name, 1.0), wcet / ii)
            if self.max_counts is not None and name in self.max_counts:
                count = min(count, self.max_counts[name])
            counts[name] = count
        return counts

    def is_feasible_ii(self, ii: float, tolerance: float = 1e-9) -> bool:
        """Whether the cheapest counts for ``ii`` satisfy all capacities."""
        counts = self.counts_for_ii(ii)
        if self.max_counts is not None:
            for name, wcet in self.wcet.items():
                if wcet / counts[name] > ii * (1 + 1e-12) + tolerance:
                    return False
        return all(constraint.is_satisfied(counts, tolerance) for constraint in self.capacities)

    def achieved_ii(self, counts: Mapping[str, float]) -> float:
        """Initiation interval achieved by a given CU-count assignment."""
        return max(self.wcet[name] / counts[name] for name in self.wcet)

    # ------------------------------------------------------------------ #
    # Bounds
    # ------------------------------------------------------------------ #
    def lower_bound(self) -> float:
        """A valid lower bound on the optimal II (work-conservation bound)."""
        bound = 0.0
        for constraint in self.capacities:
            if constraint.capacity <= 0:
                continue
            work = sum(
                self.wcet[name] * constraint.weights.get(name, 0.0) for name in self.wcet
            )
            if work > 0:
                bound = max(bound, work / constraint.capacity)
        return bound

    def upper_bound_start(self) -> float:
        """An II that is feasible whenever the problem is feasible at all.

        With ``N_k`` at their minimum (typically 1 per kernel), the II equals
        ``max_k WCET_k / min_count_k``; no smaller capacity usage is possible,
        so if this is infeasible the whole problem is infeasible.
        """
        return max(
            self.wcet[name] / self.min_counts.get(name, 1.0) for name in self.wcet
        )

    # ------------------------------------------------------------------ #
    # Solve
    # ------------------------------------------------------------------ #
    def solve(self, tolerance: float = 1e-10, max_iterations: int = 200) -> tuple[float, dict[str, float]]:
        """Return the optimal ``(II, counts)`` pair by bisection.

        Raises
        ------
        InfeasibleError
            If even the minimum CU counts violate a capacity constraint.
        """
        high = self.upper_bound_start()
        if not self.is_feasible_ii(high):
            raise InfeasibleError(
                "minimum CU counts already exceed the platform capacity; "
                "the relaxed allocation problem is infeasible"
            )
        low = max(self.lower_bound(), 1e-12)
        if low > high:
            low = high
        # Shrink the interval; feasibility is monotone non-decreasing in II.
        for _ in range(max_iterations):
            if high - low <= tolerance * max(1.0, high):
                break
            mid = 0.5 * (low + high)
            if self.is_feasible_ii(mid):
                high = mid
            else:
                low = mid
        counts = self.counts_for_ii(high)
        return self.achieved_ii(counts), counts


class VectorizedMinMaxProblem:
    """Array form of :class:`MinMaxLatencyProblem` over a fixed kernel order.

    Built once per allocation problem and then solvable many times with
    different box bounds: a branch-and-bound node only supplies new
    ``min_counts`` / ``max_counts`` vectors while the WCET vector, the
    ``(D, K)`` weight matrix and the capacity vector are reused.
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
        # across solves, so the per-node lower bound is a single division.
        self._work = self.weights @ self.wcet

    @classmethod
    def from_scalar(cls, problem: MinMaxLatencyProblem) -> "VectorizedMinMaxProblem":
        """Array view of a scalar problem (kernel order = WCET mapping order)."""
        names = tuple(problem.wcet)
        wcet = np.asarray([problem.wcet[name] for name in names], dtype=np.float64)
        weights = np.asarray(
            [[constraint.weights.get(name, 0.0) for name in names] for constraint in problem.capacities],
            dtype=np.float64,
        ).reshape(len(problem.capacities), len(names))
        capacity = np.asarray(
            [constraint.capacity for constraint in problem.capacities], dtype=np.float64
        )
        return cls(names=names, wcet=wcet, weights=weights, capacity=capacity)

    # ------------------------------------------------------------------ #
    # Core relations (mirroring the scalar implementation exactly)
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
        lower_hint: float | None = None,
        tolerance: float = 1e-10,
        max_iterations: int = 200,
    ) -> tuple[float, np.ndarray]:
        """Return the optimal ``(II, counts)`` pair by bisection.

        ``lower_hint`` tightens the initial bracket with an externally known
        lower bound on the optimum (a branch-and-bound parent's objective:
        shrinking the box can only worsen the optimum), which cuts the number
        of bisection iterations without changing what the solver converges
        to.

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
        if lower_hint is not None and lower_hint > low:
            # Back off one ulp-scale step so a hint equal to the optimum
            # (up to the parent's bisection tolerance) stays a lower bound.
            low = min(high, lower_hint * (1.0 - 1e-9))
            # The optimum usually sits at (or just above) the hint -- a
            # branch-and-bound child most often inherits its parent's II.
            # Probe geometrically outward from the hint before bisecting:
            # a feasible probe pulls ``high`` next to ``low`` immediately,
            # an infeasible one is a proven lower bound.
            for factor in (1e-9, 1e-4, 1e-2, 0.25):
                probe = lower_hint * (1.0 + factor)
                if probe >= high:
                    break
                if self.is_feasible_ii(probe, min_counts, max_counts):
                    high = probe
                    break
                low = probe
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

    def solve_dict(
        self,
        min_counts: Mapping[str, float] | None = None,
        max_counts: Mapping[str, float] | None = None,
        **kwargs: float,
    ) -> tuple[float, dict[str, float]]:
        """Name-keyed convenience wrapper around :meth:`solve`."""
        min_vector = (
            np.asarray([min_counts.get(name, 1.0) for name in self.names], dtype=np.float64)
            if min_counts is not None
            else None
        )
        max_vector = (
            np.asarray([max_counts.get(name, np.inf) for name in self.names], dtype=np.float64)
            if max_counts is not None
            else None
        )
        ii, counts = self.solve(min_counts=min_vector, max_counts=max_vector, **kwargs)
        return ii, {name: float(value) for name, value in zip(self.names, counts)}
