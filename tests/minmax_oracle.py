"""Reference solver for the GP step's min-max program, as a linear program.

Minimising ``II`` subject to ``N_k >= WCET_k / II`` is maximising the
throughput ``t = 1 / II`` subject to ``WCET_k * t <= N_k``, which is linear
in ``(N, t)``.  With the box ``lo <= N <= hi`` and the capacity rows
``W @ N <= C`` the whole program is one LP; scipy's HiGHS solves it.  It
shares no code with the closed form of :mod:`repro.gp.minmax`, which the
tests check against it.

:func:`bisection_min_max` is the second oracle: the bisection the closed
form replaced, which converges on the same optimum with the solver's own
feasibility test and so agrees with it far more tightly than the LP.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.gp.errors import InfeasibleError


def lp_min_max_ii(wcet, weights, capacity, lo=None, hi=None) -> float | None:
    """Optimal II of the min-max program, or ``None`` when it is infeasible.

    ``lo`` defaults to one CU per kernel and ``hi`` to no upper bound.
    """
    wcet = np.asarray(wcet, dtype=np.float64)
    kernels = wcet.size
    weights = np.asarray(weights, dtype=np.float64).reshape(-1, kernels)
    lo = np.ones(kernels) if lo is None else np.asarray(lo, dtype=np.float64)
    hi = np.full(kernels, np.inf) if hi is None else np.asarray(hi, dtype=np.float64)
    if np.any(lo > hi):
        return None
    # Variables (N_1..N_K, t); maximise t.
    objective = np.zeros(kernels + 1)
    objective[-1] = -1.0
    coverage = np.hstack([-np.eye(kernels), wcet[:, None]])
    capacity_rows = np.hstack([weights, np.zeros((weights.shape[0], 1))])
    result = linprog(
        objective,
        A_ub=np.vstack([coverage, capacity_rows]),
        b_ub=np.concatenate([np.zeros(kernels), np.asarray(capacity, dtype=np.float64)]),
        bounds=[(low, None if np.isinf(high) else high) for low, high in zip(lo, hi)]
        + [(0.0, None)],
        method="highs",
    )
    if result.status == 2:
        return None
    if result.status == 3:  # unbounded throughput: some kernel is free
        return 0.0
    assert result.status == 0, result.message
    return 1.0 / result.x[-1]


def bisection_min_max(problem, min_counts=None, max_counts=None, tolerance=1e-10):
    """Optimal ``(II, counts)`` of a :class:`~repro.gp.minmax.VectorizedMinMaxProblem`
    by bisection on ``II``, the solver the closed form replaced.

    Feasibility is monotone in ``II``, so halving the bracket between the
    work-conservation bound and the all-minimum II converges on the optimum
    with the problem's own feasibility test (``is_feasible_ii``).  The
    bracket closes to ``tolerance`` relative to ``II`` (the solver stopped
    at ``tolerance * max(1, II)``, the same above ``II = 1``), so the oracle
    stays tight on programs with small IIs.

    Raises ``InfeasibleError`` when even the minimum counts do not fit.
    """
    if min_counts is None:
        min_counts = np.ones_like(problem.wcet)
    high = float(np.max(problem.wcet / min_counts))
    if not problem.is_feasible_ii(high, min_counts, max_counts):
        raise InfeasibleError("minimum CU counts already exceed the platform capacity")
    low = min(max(problem.lower_bound(), 1e-12), high)
    for _ in range(200):
        if high - low <= tolerance * high:
            break
        mid = 0.5 * (low + high)
        if problem.is_feasible_ii(mid, min_counts, max_counts):
            high = mid
        else:
            low = mid
    counts = problem.counts_for_ii(high, min_counts, max_counts)
    return float(np.max(problem.wcet / counts)), counts
