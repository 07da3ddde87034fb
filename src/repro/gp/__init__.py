"""Geometric programming substrate.

The paper's heuristic links its allocator to "an existing efficient GP
solver" (GPkit).  The GP its first step produces (eqs. 14-18) is a min-max
program whose capacity usage is piecewise ``a + b / II`` between sorted
breakpoints, so its optimum has a closed form; this package holds just that
solver (:mod:`repro.gp.minmax`) and its errors.
"""

from .errors import GPError, InfeasibleError
from .minmax import VectorizedMinMaxProblem

__all__ = [
    "GPError",
    "InfeasibleError",
    "VectorizedMinMaxProblem",
]
