"""Brute-force reference for the node relaxation of the MINLP+G search.

Rebuilds a node's convex relaxation from the problem data alone and
minimises its goal ``alpha * II + beta * phi*(II)`` without derivatives:

* ``phi*(II)`` is the LP "minimise ``phi``" over the box, subject to the
  coverage rows ``sum_f n_kf >= max(1, WCET_k / II)``, one capacity row per
  (dimension, FPGA), the symmetry-breaking order of adjacent equal-capacity
  FPGAs, and ``phi >= sum_f chord_kf(n_kf)`` per kernel, where ``chord_kf``
  is the secant of ``n / (1 + n)`` over the box;
* the smallest feasible II is ``1 / t*`` of the LP "maximise ``t``" subject to
  ``sum_f n_kf >= WCET_k * t`` and ``sum_f n_kf >= 1``, capped at the largest
  WCET (beyond it every coverage requirement is 1 and the goal only grows);
* the goal is convex in ``s = 1/II``, so ``phi*`` is solved on a dense grid
  in ``s``, then twice more on a dense grid between the neighbours of the
  previous grid's best point, where the minimiser lies (a single refinement
  can leave two kinks in neighbouring cells, with no line through the
  piece between them);
* ``phi*`` is piecewise linear in ``s``: lines through neighbouring points
  of the last grid intersect exactly at its kinks, and each line's
  ``alpha / s + beta * line(s)`` is stationary at
  ``sqrt(alpha / (beta * slope))``.  Those points near the best refined
  point are solved too.

Every LP goes through ``scipy.optimize.linprog``; nothing here reads LP
duals, and only the variable names come from :mod:`repro.core.relaxations`.
The smallest goal over all solved points is an upper bound on the
relaxation's minimum, equal to it whenever the optimal piece or kink is
resolved by the refined grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from repro.core.problem import AllocationProblem
from repro.core.relaxations import variable_name
from repro.minlp.bounds import VariableBounds

#: Points of the coarse grid and of each refined grid around its best point.
GRID_POINTS = 48
#: Refinements after the coarse grid.
REFINEMENTS = 2
#: HiGHS's primal/dual feasibility tolerance: two LP values of one optimum
#: may differ by this much (relative to ``max(1, |value|)``).
LP_TOLERANCE = 1e-7


def _static_rows(problem: AllocationProblem) -> np.ndarray:
    """Capacity and symmetry rows over ``n`` (``A @ n <= b``) with their RHS
    appended as the last column."""
    names = problem.kernel_names
    num_f = problem.num_fpgas
    num_n = len(names) * num_f
    dimensions = problem.capacity_dimensions()
    capacities = [dim.fpga_capacities(num_f) for dim in dimensions]
    rows = []
    for dim, caps in zip(dimensions, capacities):
        weights = np.array([dim.weights.get(name, 0.0) for name in names])
        for fpga in range(num_f):
            row = np.zeros(num_n + 1)
            row[fpga:num_n:num_f] = weights
            row[-1] = caps[fpga]
            rows.append(row)
    if num_f > 1 and dimensions:
        order = max(dimensions, key=lambda d: sum(d.weights.values()) / max(d.capacity, 1e-9))
        weights = np.array([order.weights.get(name, 0.0) for name in names])
        for fpga in range(num_f - 1):
            if all(caps[fpga] == caps[fpga + 1] for caps in capacities):
                row = np.zeros(num_n + 1)
                row[fpga:num_n:num_f] -= weights
                row[fpga + 1 : num_n : num_f] += weights
                rows.append(row)
    return np.array(rows).reshape(-1, num_n + 1)


def oracle_minimum(problem: AllocationProblem, bounds: VariableBounds) -> float | None:
    """Minimum goal of the node relaxation (with symmetry breaking) over
    ``bounds``, or ``None`` when the box admits no fractional point at any II."""
    names = problem.kernel_names
    num_k, num_f = len(names), problem.num_fpgas
    num_n = num_k * num_f
    alpha, beta = problem.weights.alpha, problem.weights.beta
    wcet = np.array([problem.wcet[name] for name in names])
    variables = tuple(variable_name(name, fpga) for name in names for fpga in range(num_f))
    assert bounds.names == variables
    lower = bounds.lower.astype(float)
    upper = bounds.upper.astype(float)
    static = _static_rows(problem)
    box = list(zip(lower, upper))

    # Smallest feasible II: maximise t over [n, t].
    totals = np.zeros((num_k, num_n))
    for k in range(num_k):
        totals[k, k * num_f : (k + 1) * num_f] = 1.0
    feasibility = linprog(
        np.r_[np.zeros(num_n), -1.0],
        A_ub=np.vstack([
            np.hstack([-totals, wcet[:, None]]),
            np.hstack([-totals, np.zeros((num_k, 1))]),
            np.hstack([static[:, :-1], np.zeros((len(static), 1))]),
        ]),
        b_ub=np.r_[np.zeros(num_k), -np.ones(num_k), static[:, -1]],
        bounds=box + [(0.0, None)],
        method="highs",
    )
    if not feasibility.success or feasibility.x[-1] <= 0.0:
        return None
    ii_high = float(wcet.max())
    ii_low = min(1.0 / feasibility.x[-1], ii_high)

    # phi*(s) over [n, phi]: coverage | static | secant rows.
    spread = lambda n: n / (1.0 + n)  # noqa: E731
    widths = upper - lower
    chord = np.divide(
        spread(upper) - spread(lower), widths, out=np.zeros(num_n), where=widths > 0
    )
    secant = np.zeros((num_k, num_n))
    for k in range(num_k):
        secant[k, k * num_f : (k + 1) * num_f] = chord[k * num_f : (k + 1) * num_f]
    intercepts = (spread(lower) - chord * lower).reshape(num_k, num_f).sum(axis=1)
    matrix = np.vstack([
        np.hstack([-totals, np.zeros((num_k, 1))]),
        np.hstack([static[:, :-1], np.zeros((len(static), 1))]),
        np.hstack([secant, -np.ones((num_k, 1))]),
    ])
    cost = np.r_[np.zeros(num_n), 1.0]
    phis: dict[float, float] = {}

    def phi(s: float) -> float:
        if s not in phis:
            result = linprog(
                cost,
                A_ub=matrix,
                b_ub=np.r_[-np.maximum(1.0, wcet * s), static[:, -1], -intercepts],
                bounds=box + [(0.0, None)],
                method="highs",
            )
            phis[s] = result.fun if result.success else math.inf
        return phis[s]

    def goal(s: float) -> float:
        return alpha / s + beta * phi(s)

    s_low, s_high = 1.0 / ii_high, 1.0 / ii_low
    fine = np.linspace(s_low, s_high, GRID_POINTS)
    for _ in range(REFINEMENTS):
        best = int(np.argmin([goal(s) for s in fine]))
        fine = np.linspace(fine[max(best - 1, 0)], fine[min(best + 1, GRID_POINTS - 1)], GRID_POINTS)
    values = np.array([phi(s) for s in fine])
    center = int(np.argmin(alpha / fine + beta * values))
    lines = []
    for i in range(max(center - 3, 0), min(center + 3, GRID_POINTS - 1)):
        if np.isfinite(values[i]) and np.isfinite(values[i + 1]):
            slope = (values[i + 1] - values[i]) / (fine[i + 1] - fine[i])
            lines.append((slope, values[i] - slope * fine[i]))
    extra = [math.sqrt(alpha / (beta * slope)) for slope, _ in lines if slope > 0.0]
    for i, (slope_a, offset_a) in enumerate(lines):
        for slope_b, offset_b in lines[i + 1 :]:
            if slope_a != slope_b:
                extra.append((offset_b - offset_a) / (slope_a - slope_b))
    for s in extra:
        if fine[0] <= s <= fine[-1]:
            goal(s)
    return min(goal(s) for s in phis)


def assert_matches_oracle(problem: AllocationProblem, box: VariableBounds, result) -> None:
    """``result`` (a node relaxation over ``box``) is a certified lower bound:
    within ``1e-6`` relative below :func:`oracle_minimum`, and above it by no
    more than LP noise, since both sides are HiGHS LP values."""
    minimum = oracle_minimum(problem, box)
    if minimum is None:
        assert not result.feasible
        return
    assert result.feasible
    scale = max(1.0, abs(minimum))
    assert minimum - 1e-6 * scale <= result.objective <= minimum + LP_TOLERANCE * scale
    assert len(result.values) == len(box)
    for value, low, high in zip(result.values, box.lower, box.upper):
        assert low - 1e-9 <= value <= high + 1e-9
