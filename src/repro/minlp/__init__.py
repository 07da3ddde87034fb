"""Mixed-integer non-linear programming substrate.

Replaces the Couenne MINLP solver used as the exact reference in the paper:
a vector bin-packing feasibility kernel for the decomposed beta = 0 case,
the split search that packs each kernel's CU total as parts on distinct
FPGAs under a spreading cap for the weighted case, and the spreading terms
``n/(1+n)``.
"""

from .binpacking import (
    PackingItemType,
    PackingResult,
    VectorBinPacker,
    packing_key,
    shared_packing_memo,
    shared_packing_memos_clear,
)
from .secant import spreading_of_kernel, spreading_term
from .split_search import SearchBudgetExhausted, SplitPacker, splits_below

__all__ = [
    "PackingItemType",
    "PackingResult",
    "SearchBudgetExhausted",
    "SplitPacker",
    "VectorBinPacker",
    "packing_key",
    "shared_packing_memo",
    "shared_packing_memos_clear",
    "splits_below",
    "spreading_of_kernel",
    "spreading_term",
]
