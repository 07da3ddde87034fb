"""Split search: the packing step of the exact MINLP+G decomposition.

With every kernel's CU total ``N_k`` fixed (one candidate II of
:func:`repro.core.exact.solve_exact_weighted`), a kernel's spreading
``phi_k = sum_f n_kf / (1 + n_kf)`` depends only on how ``N_k`` splits into
parts on distinct FPGAs.  A cap on ``max_k phi_k`` therefore leaves each
kernel a finite list of allowed splits, and "is there an allocation with
these totals and a spreading below the cap?" becomes a packing of those
splits into the FPGAs.  :class:`SplitPacker` answers it two ways:

* :meth:`SplitPacker.greedy` -- kernel by kernel, the first placement
  (parts on their best-fitting FPGAs) of the least-spreading split that
  fits, never revisiting an earlier kernel.  Cheap, and usually close to
  the optimum.
* :meth:`SplitPacker.search` -- a complete depth-first search over the same
  choices, pruned by per-dimension aggregate slack, by the symmetry of FPGAs
  with equal room left and by a memo of failed states.

FPGAs are compared by their residual capacity (capacity minus load), so a
heterogeneous platform needs nothing special: two FPGAs are interchangeable
exactly when their capacities and loads leave the same room.  A part fits
an FPGA when its demand exceeds the room by at most the tolerance in no
dimension, which is how
:func:`repro.core.solution.counts_matrix_feasible` checks an allocation.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

#: One allowed split of a kernel's total: its spreading and its parts
#: (non-increasing).
Split = tuple[float, tuple[int, ...]]


class SearchBudgetExhausted(Exception):
    """The split search used up its node budget before it could decide."""


def splits_below(total: int, part_cap: int, num_bins: int, cap: float) -> list[Split]:
    """Every split of ``total`` into at most ``num_bins`` parts of at most
    ``part_cap`` each whose spreading is below ``cap``, ascending in
    spreading (ties in generation order: larger leading parts first)."""
    found: list[Split] = []
    parts: list[int] = []

    def extend(rest: int, largest: int, spreading: float) -> None:
        if rest == 0:
            found.append((spreading, tuple(parts)))
            return
        slots = num_bins - len(parts) - 1
        for part in range(min(largest, rest), 0, -1):
            remaining = rest - part
            if remaining > part * slots:
                break  # the rest no longer fits the slots left
            value = spreading + part / (1.0 + part)
            if value + remaining / (1.0 + remaining) >= cap:
                continue
            parts.append(part)
            extend(remaining, part, value)
            parts.pop()

    extend(total, part_cap, 0.0)
    found.sort(key=lambda split: split[0])
    return found


class SplitPacker:
    """Packs split kernels into FPGAs under a spreading cap.

    ``sizes`` holds each kernel's per-CU demand and ``capacities`` each
    FPGA's capacity, over the same dimensions; ``part_caps`` is the most
    CUs of each kernel one empty FPGA holds.  ``max_nodes`` bounds the nodes
    of every :meth:`search` together; :attr:`nodes` counts them.
    """

    def __init__(
        self,
        sizes: Sequence[Sequence[float]],
        capacities: Sequence[Sequence[float]],
        part_caps: Sequence[int],
        tolerance: float,
        max_nodes: int,
    ):
        self.sizes = [tuple(float(value) for value in size) for size in sizes]
        self.capacities = [tuple(float(value) for value in row) for row in capacities]
        self.part_caps = list(part_caps)
        self.tolerance = tolerance
        self.max_nodes = max_nodes
        self.nodes = 0
        num_dimensions = len(self.capacities[0]) if self.capacities else 0
        self._scale = [
            max((row[d] for row in self.capacities), default=0.0) or 1.0
            for d in range(num_dimensions)
        ]
        self._splits: dict[tuple[int, int], tuple[float, list[Split]]] = {}

    # ------------------------------------------------------------------ #
    # Shared pieces
    # ------------------------------------------------------------------ #
    def splits(self, kernel: int, total: int, cap: float) -> Iterator[Split]:
        """The kernel's splits of ``total`` below ``cap``, ascending.

        Each (kernel, total) keeps the list of the largest cap asked for so
        far; a call under a smaller cap reads a prefix of it.
        """
        listed_cap, listed = self._splits.get((kernel, total), (-math.inf, []))
        if cap > listed_cap:
            listed = splits_below(total, self.part_caps[kernel], len(self.capacities), cap)
            self._splits[(kernel, total)] = (cap, listed)
        for split in listed:
            if split[0] >= cap:
                return
            yield split

    def _demand(self, kernel: int, part: int) -> tuple[float, ...]:
        return tuple(part * weight for weight in self.sizes[kernel])

    def _fits(self, room: Sequence[float], demand: Sequence[float]) -> bool:
        tolerance = self.tolerance
        for need, left in zip(demand, room):
            if need > left + tolerance:
                return False
        return True

    def _leftover(self, room: Sequence[float], demand: Sequence[float]) -> float:
        """Best-fit key: the tightest scaled room a placement leaves in a
        dimension the kernel uses (smaller is a tighter fit)."""
        return min(
            (
                (left - need) / scale
                for left, need, scale in zip(room, demand, self._scale)
                if need > 0
            ),
            default=0.0,
        )

    @staticmethod
    def _take(room: tuple[float, ...], demand: tuple[float, ...]) -> tuple[float, ...]:
        return tuple(left - need for left, need in zip(room, demand))

    def order(self, totals: Sequence[int]) -> list[int]:
        """Kernels by decreasing relative volume (ties by index)."""
        aggregate = [
            sum(row[d] for row in self.capacities) or 1.0 for d in range(len(self._scale))
        ]
        volume = [
            total * sum(weight / room for weight, room in zip(size, aggregate))
            for total, size in zip(totals, self.sizes)
        ]
        return sorted(range(len(totals)), key=lambda kernel: (-volume[kernel], kernel))

    # ------------------------------------------------------------------ #
    # Greedy
    # ------------------------------------------------------------------ #
    def greedy(self, totals: Sequence[int], cap: float) -> tuple[list[list[int]], float] | None:
        """One pass that keeps, kernel by kernel, the first placement of the
        least-spreading split that fits: ``(grid, spreading)``, or ``None``
        if some kernel fits no split.  ``grid[k][f]`` is the CU count of
        kernel ``k`` on FPGA ``f``."""
        room = list(self.capacities)
        grid = [[0] * len(room) for _ in totals]
        worst = 0.0
        for kernel in self.order(totals):
            for spreading, parts in self.splits(kernel, totals[kernel], cap):
                placement = next(self._placements(room, kernel, parts), None)
                if placement is not None:
                    for fpga, part in placement:
                        room[fpga] = self._take(room[fpga], self._demand(kernel, part))
                        grid[kernel][fpga] = part
                    worst = max(worst, spreading)
                    break
            else:
                return None
        return grid, worst

    # ------------------------------------------------------------------ #
    # Complete search
    # ------------------------------------------------------------------ #
    def _placements(
        self, room: list[tuple[float, ...]], kernel: int, parts: tuple[int, ...]
    ) -> Iterator[list[tuple[int, int]]]:
        """Every placement of ``parts`` on distinct FPGAs, up to symmetry.

        FPGAs with equal room are one class, whose members are used in
        index order; a run of equal parts picks its classes in
        non-decreasing rank, so each multiset of classes is tried once.
        """
        classes: dict[tuple[float, ...], list[int]] = {}
        for fpga, left in enumerate(room):
            classes.setdefault(left, []).append(fpga)
        rooms = list(classes)
        members = list(classes.values())
        taken = [0] * len(members)
        ranked: dict[int, list[int]] = {}
        chosen: list[tuple[int, int]] = []

        def rank(part: int) -> list[int]:
            if part not in ranked:
                demand = self._demand(kernel, part)
                ranked[part] = sorted(
                    (g for g, left in enumerate(rooms) if self._fits(left, demand)),
                    key=lambda g: (self._leftover(rooms[g], demand), g),
                )
            return ranked[part]

        def place(index: int, start: int) -> Iterator[list[tuple[int, int]]]:
            if index == len(parts):
                yield chosen
                return
            part = parts[index]
            order = rank(part)
            for position in range(start, len(order)):
                group = order[position]
                if taken[group] == len(members[group]):
                    continue
                chosen.append((members[group][taken[group]], part))
                taken[group] += 1
                following = parts[index + 1] if index + 1 < len(parts) else None
                yield from place(index + 1, position if following == part else 0)
                taken[group] -= 1
                chosen.pop()

        yield from place(0, 0)

    def search(
        self,
        totals: Sequence[int],
        cap: float,
        failed: set,
    ) -> tuple[list[list[int]], float] | None:
        """A packing whose every kernel spreads below ``cap``, or ``None``
        when none exists.

        ``failed`` memoizes the states proven dead for this ``totals``; it
        stays valid while the caller only lowers ``cap``.  Raises
        :class:`SearchBudgetExhausted` when the search needs a node past the
        budget.
        """
        order = self.order(totals)
        num_dimensions = len(self._scale)
        slack = len(self.capacities) * self.tolerance
        suffix = [[0.0] * num_dimensions for _ in range(len(order) + 1)]
        for position in range(len(order) - 1, -1, -1):
            kernel = order[position]
            suffix[position] = [
                below + totals[kernel] * weight
                for below, weight in zip(suffix[position + 1], self.sizes[kernel])
            ]
        room = list(self.capacities)
        grid = [[0] * len(room) for _ in totals]
        spreads: list[float] = []

        def descend(position: int) -> bool:
            if position == len(order):
                return True
            key = (position, tuple(sorted(room)))
            if key in failed:
                return False
            for d in range(num_dimensions):
                if suffix[position][d] > sum(left[d] for left in room) + slack:
                    failed.add(key)
                    return False
            kernel = order[position]
            for spreading, parts in self.splits(kernel, totals[kernel], cap):
                for placement in self._placements(room, kernel, parts):
                    if self.nodes == self.max_nodes:
                        raise SearchBudgetExhausted
                    self.nodes += 1
                    saved = [(fpga, room[fpga]) for fpga, _ in placement]
                    for fpga, part in placement:
                        room[fpga] = self._take(room[fpga], self._demand(kernel, part))
                        grid[kernel][fpga] = part
                    spreads.append(spreading)
                    if descend(position + 1):
                        return True
                    spreads.pop()
                    for fpga, left in saved:
                        room[fpga] = left
                        grid[kernel][fpga] = 0
            failed.add(key)
            return False

        if not descend(0):
            return None
        return [list(row) for row in grid], max(spreads, default=0.0)
