"""Integer box bounds manipulated by the branch-and-bound engine."""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np


class VariableBounds:
    """Integer box bounds over a fixed, ordered set of variables.

    ``names`` is one tuple shared by every node of a search tree; ``lower``
    and ``upper`` are read-only int64 arrays aligned with it (inclusive
    endpoints).  Branch-and-bound nodes derive child bounds via
    :meth:`with_upper` / :meth:`with_lower`, which take a variable's
    *position* and copy only the array they change.
    """

    __slots__ = ("names", "lower", "upper")

    def __init__(self, names: Sequence[str], lower: Sequence[int], upper: Sequence[int]):
        self.names = tuple(names)
        self.lower = np.array(lower, dtype=np.int64)
        self.upper = np.array(upper, dtype=np.int64)
        if self.lower.shape != (len(self.names),) or self.upper.shape != self.lower.shape:
            raise ValueError("lower and upper need one entry per variable name")
        invalid = np.flatnonzero((self.lower > self.upper) | (self.lower < 0))
        if invalid.size:
            raise ValueError(f"invalid bound interval for {self.names[invalid[0]]!r}")
        self.lower.flags.writeable = self.upper.flags.writeable = False

    @classmethod
    def from_ranges(cls, ranges: Mapping[str, tuple[int, int]]) -> "VariableBounds":
        """Bounds from ``{name: (lower, upper)}``, in the mapping's order."""
        pairs = list(ranges.values())
        return cls(tuple(ranges), [low for low, _ in pairs], [high for _, high in pairs])

    def __len__(self) -> int:
        return len(self.names)

    def with_upper(self, index: int, upper: int) -> "VariableBounds":
        """Child bounds with variable ``index <= upper``; raises if the
        interval empties."""
        new_upper = self.upper.copy()
        new_upper[index] = min(int(new_upper[index]), upper)
        return self._child(self.lower, new_upper, index)

    def with_lower(self, index: int, lower: int) -> "VariableBounds":
        """Child bounds with variable ``index >= lower``; raises if the
        interval empties."""
        new_lower = self.lower.copy()
        new_lower[index] = max(int(new_lower[index]), lower)
        return self._child(new_lower, self.upper, index)

    def _child(self, lower: np.ndarray, upper: np.ndarray, index: int) -> "VariableBounds":
        if lower[index] > upper[index]:
            raise ValueError(f"empty bound interval for {self.names[index]!r}")
        lower.flags.writeable = upper.flags.writeable = False
        child = object.__new__(VariableBounds)
        child.names, child.lower, child.upper = self.names, lower, upper
        return child
