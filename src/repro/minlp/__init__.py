"""Mixed-integer non-linear programming substrate.

Replaces the Couenne MINLP solver used as the exact reference in the paper:
a best-first branch-and-bound engine over integer box bounds with pluggable
node relaxations, secant relaxations for the concave spreading terms, and a
vector bin-packing feasibility kernel for the decomposed beta = 0 case.
"""

from .bounds import VariableBounds
from .branch_and_bound import (
    BBResult,
    BBSettings,
    BBStatus,
    BranchAndBoundSolver,
    RelaxationResult,
    shared_relaxation_caches_clear,
)
from .binpacking import (
    PackingItemType,
    PackingResult,
    VectorBinPacker,
    packing_key,
    shared_packing_memo,
    shared_packing_memos_clear,
)
from .errors import InfeasibleProblemError, MINLPError
from .secant import (
    SecantSegment,
    secant_gap,
    secant_of,
    spreading_of_kernel,
    spreading_secant,
    spreading_term,
)

__all__ = [
    "BBResult",
    "BBSettings",
    "BBStatus",
    "BranchAndBoundSolver",
    "InfeasibleProblemError",
    "MINLPError",
    "PackingItemType",
    "PackingResult",
    "RelaxationResult",
    "SecantSegment",
    "VariableBounds",
    "VectorBinPacker",
    "packing_key",
    "secant_gap",
    "shared_packing_memo",
    "shared_packing_memos_clear",
    "shared_relaxation_caches_clear",
    "secant_of",
    "spreading_of_kernel",
    "spreading_secant",
    "spreading_term",
]
