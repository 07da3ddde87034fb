"""Front-end for the allocation solvers.

``solve(problem, method=...)`` dispatches to the three methods compared in
Section 4 of the paper:

* ``"gp+a"``    -- the GP + allocation heuristic (Section 3.2),
* ``"minlp"``   -- exact minimum-II reference with ``beta = 0``,
* ``"minlp+g"`` -- exact solver for the weighted II + spreading objective.
"""

from __future__ import annotations

from typing import Callable

from ..obs.trace import span
from .exact import ExactSettings, solve_exact_min_ii, solve_exact_weighted
from .heuristic import HeuristicSettings, solve_gp_a
from .objective import ObjectiveWeights
from .problem import AllocationProblem
from .solution import SolveOutcome

#: Canonical method names, matching the figure legends of the paper.
METHODS: tuple[str, ...] = ("gp+a", "minlp", "minlp+g")


def solve(
    problem: AllocationProblem,
    method: str = "gp+a",
    heuristic_settings: HeuristicSettings | None = None,
    exact_settings: ExactSettings | None = None,
) -> SolveOutcome:
    """Solve an allocation problem with the named method.

    Notes
    -----
    * ``"minlp"`` always optimises the pure initiation interval (``beta = 0``)
      regardless of the weights carried by the problem, exactly as in the
      paper's figures.
    * ``"minlp+g"`` uses the problem's weights; if the problem has
      ``beta = 0`` it falls back to the decomposed minimum-II solver.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; options: {METHODS}")
    heuristic_settings = heuristic_settings or HeuristicSettings()
    exact_settings = exact_settings or ExactSettings()

    if method == "gp+a":
        return solve_gp_a(problem, heuristic_settings)
    if method == "minlp":
        with span("reweight"):
            ii_only = problem.with_weights(
                ObjectiveWeights(alpha=problem.weights.alpha, beta=0.0)
            )
        return solve_exact_min_ii(ii_only, exact_settings)
    return solve_exact_weighted(problem, exact_settings)


def solver_for(method: str) -> Callable[[AllocationProblem], SolveOutcome]:
    """Return a single-argument solver callable for the named method."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; options: {METHODS}")
    return lambda problem: solve(problem, method=method)
