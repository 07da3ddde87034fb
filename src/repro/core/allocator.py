"""Greedy CU-to-FPGA allocation heuristic (Algorithm 1 of the paper).

Given integer CU totals ``N_k`` (from the discretisation step), the allocator
assigns them to FPGAs while:

* allocating the most *critical* kernels first (those whose II suffers most
  if a CU were dropped),
* consolidating kernels onto already-occupied FPGAs (FPGAs are visited in
  increasing order of resource slack), which minimises spreading,
* splitting kernels that cannot fit on a single FPGA across empty FPGAs
  first, and
* retrying with a slightly relaxed per-FPGA constraint ``Rc = R + i * delta``
  while ``Rc <= R + T`` when a complete allocation cannot be found.

"Resource" means every active capacity dimension: on-chip resources *and*
DRAM bandwidth, as in the paper ("we use the general term resource constraint
to refer to both actual resource and bandwidth constraints").

Kernels and FPGAs are indexed by position: per-FPGA slack is a ``(F, D)``
table and per-CU demand a ``(K, D)`` table (rows taken from the problem's
memoized :class:`~repro.core.arrays.ProblemArrays`).  At the sizes the model
targets (``F <= 8``, ``D <= 3``) plain Python arithmetic beats per-call NumPy
dispatch, so the placement passes and the repair pass run on lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Mapping, NamedTuple

import numpy as np

from .problem import AllocationProblem

CriticalityRule = Literal["ii-impact", "resource", "wcet", "footprint"]

#: Feasibility slack used by every capacity comparison.
_TOL = 1e-9


@dataclass(frozen=True)
class AllocatorSettings:
    """Tuning knobs of Algorithm 1.

    ``portfolio=True`` runs one greedy pass per criticality rule and keeps the
    best outcome; each pass is microseconds, and multi-dimensional packing is
    sensitive enough to the visit order that this materially improves
    robustness without leaving the paper's greedy framework.  The portfolio
    includes a plain first-fit-decreasing ordering (``"footprint"``: largest
    per-CU footprint first), so Algorithm 1 dominates the FFD ablation
    baseline by construction.
    """

    t_percent: float = 0.0
    delta_percent: float = 1.0
    criticality: CriticalityRule = "ii-impact"
    portfolio: bool = True
    polish: bool = True

    def __post_init__(self) -> None:
        if self.t_percent < 0:
            raise ValueError("T must be non-negative")
        if self.delta_percent <= 0:
            raise ValueError("delta must be positive")

    def criticality_rules(self) -> tuple[CriticalityRule, ...]:
        """Orderings attempted at every constraint-relaxation step."""
        if not self.portfolio:
            return (self.criticality,)
        rules: list[CriticalityRule] = [self.criticality]
        for rule in ("resource", "wcet", "ii-impact", "footprint"):
            if rule not in rules:
                rules.append(rule)  # type: ignore[arg-type]
        return tuple(rules)


@dataclass(frozen=True)
class AllocatorResult:
    """Outcome of the greedy allocation."""

    success: bool
    counts: Mapping[str, tuple[int, ...]]
    constraint_relaxation: float
    iterations: int
    unallocated: Mapping[str, int]


class _CapsTables(NamedTuple):
    """Capacity-only tables of one constraint relaxation (list rows are
    per FPGA, over every active dimension)."""

    rows: list[list[float]]  # caps
    slack_rows: list[list[float]]  # caps + tolerance
    inverse: list[list[float]]  # 1 / caps (0 where a cap is 0)
    unit_norms: list[list[float]]  # (K, F): one CU's normalized footprint


class GreedyAllocator:
    """Algorithm 1: criticality-driven, consolidation-biased CU placement."""

    def __init__(self, problem: AllocationProblem, settings: AllocatorSettings = AllocatorSettings()):
        self.problem = problem
        self.settings = settings
        arrays = problem.arrays()
        self._arrays = arrays
        self._names = arrays.names
        self._num_kernels = len(arrays.names)
        self._num_fpgas = problem.num_fpgas
        self._wcet_list = arrays.wcet.tolist()
        # Per-CU demand, one row per kernel over every active dimension
        # (on-chip resource kinds plus bandwidth), and the largest on-chip
        # share of one CU.
        self._unit_lists = arrays.weights.T.tolist()
        resource_columns = [
            d for d in range(arrays.num_dimensions) if d != arrays.bandwidth_row
        ]
        self._per_cu_list = [
            max((row[d] for d in resource_columns), default=0.0) for row in self._unit_lists
        ]
        # Each kernel's positive dimensions, hoisted out of the placement
        # loops (shared across every pass and polish).
        self._positive_dim_lists = [
            [(dimension, value) for dimension, value in enumerate(row) if value > 0]
            for row in self._unit_lists
        ]
        self._dim_range = range(arrays.num_dimensions)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def allocate(self, totals: Mapping[str, int]) -> AllocatorResult:
        """Allocate ``N_k`` CUs per kernel to the platform's FPGAs.

        Follows the retry loop of Algorithm 1: the per-FPGA constraint starts
        at the problem's resource limit and is relaxed by ``delta`` points per
        failed attempt, up to ``T`` extra points.
        """
        for name in self._names:
            if name not in totals:
                raise KeyError(f"missing CU total for kernel {name!r}")
            if totals[name] < 1:
                raise ValueError(f"kernel {name!r} must have at least one CU")
        totals_list = [int(totals[name]) for name in self._names]
        # Criticality of losing one CU (eq. 1): fixed per requested totals,
        # so computed once for every pass of the portfolio/retry loop.
        impact = [
            math.inf if count <= 1 else wcet / (count - 1) - wcet / count
            for wcet, count in zip(self._wcet_list, totals_list)
        ]

        extra = 0.0
        iterations = 0
        best: tuple[list[list[int]], list[int], float] | None = None
        best_quality: tuple[float, int] | None = None
        while True:
            tables = self._caps_tables(extra)
            for rule in self.settings.criticality_rules():
                iterations += 1
                counts, remaining, slack = self._allocate_once(
                    totals_list, tables, rule, impact
                )
                if any(remaining) and self.settings.polish:
                    self._polish(counts, remaining, slack)
                if not any(remaining):
                    return AllocatorResult(
                        success=True,
                        counts=self._counts_mapping(counts),
                        constraint_relaxation=extra,
                        iterations=iterations,
                        unallocated={},
                    )
                quality = self._partial_quality(counts)
                if best_quality is None or quality < best_quality:
                    best, best_quality = (counts, remaining, extra), quality
            extra += self.settings.delta_percent
            if extra > self.settings.t_percent + _TOL:
                break

        assert best is not None
        counts, remaining, used_extra = best
        return AllocatorResult(
            success=False,
            counts=self._counts_mapping(counts),
            constraint_relaxation=used_extra,
            iterations=iterations,
            unallocated={
                name: count for name, count in zip(self._names, remaining) if count > 0
            },
        )

    def _counts_mapping(self, counts: list[list[int]]) -> dict[str, tuple[int, ...]]:
        return {name: tuple(row) for name, row in zip(self._names, counts)}

    def _partial_quality(self, counts: list[list[int]]) -> tuple[float, int]:
        """Ranking key for incomplete allocations (smaller is better).

        Primary: the initiation interval achievable with what was placed
        (infinite when a kernel received nothing); secondary: negated number
        of CUs placed.
        """
        placed = [sum(row) for row in counts]
        if min(placed) <= 0:
            ii = math.inf
        else:
            ii = max(wcet / count for wcet, count in zip(self._wcet_list, placed))
        return (ii, -sum(placed))

    # ------------------------------------------------------------------ #
    # One allocation pass at a fixed constraint relaxation
    # ------------------------------------------------------------------ #
    def _caps_tables(self, extra_percent: float) -> _CapsTables:
        """The capacity tables of every pass at one constraint relaxation.

        Every FPGA's caps are relaxed by the same ``extra_percent`` points
        (clamped at the full device); on a homogeneous platform all rows are
        identical.  The portfolio's passes at one relaxation share them.
        """
        platform = self.problem.platform
        caps_vectors = platform.fpga_scaled_resource_limits(extra_percent)
        bandwidth_limits = platform.fpga_bandwidth_limits()
        bandwidth_row = self._arrays.bandwidth_row
        rows = [  # (F, D): per-FPGA capacity rows
            [
                min(100.0, bandwidth_limits[fpga] + extra_percent)
                if dimension == bandwidth_row
                else float(caps_vectors[fpga][kind])
                for dimension, kind in enumerate(self._arrays.dimension_names)
            ]
            for fpga in range(self._num_fpgas)
        ]
        inverse = [[1.0 / value if value > 0 else 0.0 for value in row] for row in rows]
        dims = self._dim_range
        return _CapsTables(
            rows=rows,
            slack_rows=[[value + _TOL for value in row] for row in rows],
            inverse=inverse,
            # Normalized footprint of one CU of each kernel on each FPGA.
            unit_norms=[
                [sum(unit[d] * row[d] for d in dims) for row in inverse]
                for unit in self._unit_lists
            ],
        )

    def _max_units(self, row: list[float], kernel: int) -> int:
        """How many CUs of one kernel an FPGA with slack ``row`` can still
        host (at most ``10**9``; zero or less means "no room")."""
        limit = 10**9
        for dimension, value in self._positive_dim_lists[kernel]:
            ratio = row[dimension] / value
            if ratio < limit:
                limit = ratio
        return int(limit + _TOL) if limit < 10**9 else 10**9

    def _place(self, row: list[float], unit_k: list[float], batch: int) -> None:
        """Take ``batch`` CUs of demand ``unit_k`` out of one FPGA's slack."""
        for dimension in self._dim_range:
            row[dimension] -= unit_k[dimension] * batch

    def _allocate_once(
        self,
        totals: list[int],
        tables: _CapsTables,
        criticality_rule: CriticalityRule | None,
        impact: list[float],
    ) -> tuple[list[list[int]], list[int], list[list[float]]]:
        """One greedy pass: per-kernel per-FPGA counts, per-kernel CUs left
        unplaced and per-FPGA slack."""
        rule: CriticalityRule = criticality_rule or self.settings.criticality
        num_fpgas = self._num_fpgas
        dims = self._dim_range
        caps_slack_rows = tables.slack_rows

        slack = [list(row) for row in tables.rows]
        counts = [[0] * num_fpgas for _ in range(self._num_kernels)]
        remaining = list(totals)
        touched = [False] * num_fpgas

        def fits_single(kernel: int, count: int) -> bool:
            unit_k = self._unit_lists[kernel]
            return any(
                all(unit_k[dimension] * count <= row[dimension] for dimension in dims)
                for row in caps_slack_rows
            )

        # ------------------------------------------------------------------
        # Phase 1 (lines 11-21): split kernels too large for a single FPGA
        # over completely empty FPGAs first.  Usually no kernel is that big.
        # ------------------------------------------------------------------
        split_set = {
            kernel for kernel, count in enumerate(totals) if not fits_single(kernel, count)
        }
        if split_set:
            for kernel in self._sorted_kernels(impact, remaining, rule):
                if kernel not in split_set:
                    continue
                unit_k = self._unit_lists[kernel]
                while remaining[kernel] > 0 and not fits_single(kernel, remaining[kernel]):
                    # Of the still-empty FPGAs, open the one with the most
                    # room for this kernel (on identical FPGAs this is the
                    # first untouched one, the paper's index order).
                    target = None
                    target_units = 0
                    for fpga in range(num_fpgas):
                        if touched[fpga]:
                            continue
                        units = self._max_units(slack[fpga], kernel)
                        if units > target_units:
                            target, target_units = fpga, units
                    if target is None:
                        break
                    batch = min(remaining[kernel], target_units)
                    if batch <= 0:
                        break
                    self._place(slack[target], unit_k, batch)
                    touched[target] = True
                    counts[kernel][target] += batch
                    remaining[kernel] -= batch

        # ------------------------------------------------------------------
        # Phase 2 (lines 22-37): allocate every kernel, trying to fit it whole
        # on the most occupied FPGA first (consolidation); if no FPGA can take
        # it whole, spill "as many CUs as possible starting from the least
        # occupied FPGA" across the platform.  Occupancy is measured by the
        # *normalized* residual (slack over own caps), so FPGAs of different
        # classes compare by how full they are, not by absolute size; it is
        # maintained incrementally per placement.
        # ------------------------------------------------------------------
        fpga_range = range(num_fpgas)
        norm_slack = [
            sum(row[dimension] * inverse[dimension] for dimension in dims)
            for row, inverse in zip(slack, tables.inverse)
        ]
        unit_norms = tables.unit_norms
        for kernel in self._sorted_kernels(impact, remaining, rule):
            count = remaining[kernel]
            if count == 0:
                continue
            unit_k = self._unit_lists[kernel]
            kernel_norms = unit_norms[kernel]
            order = sorted(fpga_range, key=norm_slack.__getitem__)
            demand = [value * count for value in unit_k]
            placed_whole = False
            for fpga in order:
                row = slack[fpga]
                fit = True
                for dimension in dims:
                    if demand[dimension] > row[dimension] + _TOL:
                        fit = False
                        break
                if fit:
                    self._place(row, unit_k, count)
                    norm_slack[fpga] -= kernel_norms[fpga] * count
                    touched[fpga] = True
                    counts[kernel][fpga] += count
                    remaining[kernel] = 0
                    placed_whole = True
                    break
            if not placed_whole:
                for fpga in reversed(order):  # least occupied first
                    count = remaining[kernel]
                    if count == 0:
                        break
                    batch = min(count, self._max_units(slack[fpga], kernel))
                    if batch > 0:
                        self._place(slack[fpga], unit_k, batch)
                        norm_slack[fpga] -= kernel_norms[fpga] * batch
                        touched[fpga] = True
                        counts[kernel][fpga] += batch
                        remaining[kernel] -= batch

        return counts, remaining, slack

    # ------------------------------------------------------------------ #
    # Repair pass for partial allocations
    # ------------------------------------------------------------------ #
    def _polish(
        self,
        counts: list[list[int]],
        remaining: list[int],
        slack: list[list[float]],
    ) -> None:
        """Rebalance a partial allocation so dropped CUs hurt the II least.

        When the greedy pass could not place every CU, the initiation interval
        is set by whichever kernel happened to run out of space.  This repair
        pass repeatedly takes the bottleneck kernel (largest ``WCET/placed``)
        and tries to host one more of its CUs, either directly in leftover
        slack or by evicting one CU of a less critical kernel, as long as the
        overall II strictly improves.  It never adds CUs beyond the requested
        totals and never violates the (possibly relaxed) per-FPGA caps.

        Ties break as the array form kept in ``tests/polish_oracle.py`` does:
        the first bottleneck, runners-up in stable order, and the first best
        swap in (FPGA, victim) order.
        """
        wcet = self._wcet_list
        unit = self._unit_lists
        kernels = range(self._num_kernels)
        dims = self._dim_range
        placed = [sum(row) for row in counts]

        for _ in range(64 * self._num_kernels):
            if not any(remaining):
                return
            exec_time = [
                wcet[kernel] / placed[kernel] if placed[kernel] > 0 else math.inf
                for kernel in kernels
            ]
            current_ii = max(exec_time)
            bottleneck = exec_time.index(current_ii)
            if remaining[bottleneck] <= 0:
                return
            unit_b = unit[bottleneck]

            # 1) Free slack somewhere?
            target = next(
                (fpga for fpga, row in enumerate(slack) if self._max_units(row, bottleneck) >= 1),
                None,
            )
            if target is not None:
                self._place(slack[target], unit_b, 1)
                counts[bottleneck][target] += 1
                remaining[bottleneck] -= 1
                placed[bottleneck] += 1
                continue

            # 2) Swap: evict one CU of another kernel if the net II improves.
            # The post-swap II depends only on the victim kernel, not on the
            # FPGA: max of the bottleneck's improved ET, the victim's degraded
            # ET, and the largest ET among the untouched kernels -- the
            # second-largest ET overall, or the third when the victim is the
            # runner-up.
            new_bottleneck_et = max(wcet[bottleneck] / (placed[bottleneck] + 1), 0.0)
            top = sorted(kernels, key=lambda kernel: -exec_time[kernel])[:3]
            runners = [kernel for kernel in top if kernel != bottleneck][:2]
            untouched = [exec_time[runner] for runner in runners] + [0.0, 0.0]
            new_ii: dict[int, float] = {}
            for kernel in kernels:
                if kernel == bottleneck or placed[kernel] < 2:
                    continue
                others = untouched[1] if runners and kernel == runners[0] else untouched[0]
                value = max(wcet[kernel] / (placed[kernel] - 1), new_bottleneck_et, others)
                if value < current_ii - 1e-12:
                    new_ii[kernel] = value
            if not new_ii:
                return
            # Feasibility per (FPGA, victim): the victim has a CU there and
            # evicting it frees enough room for one bottleneck CU.
            best = None
            best_ii = math.inf
            for fpga, row in enumerate(slack):
                for victim, value in new_ii.items():
                    if value < best_ii and counts[victim][fpga] >= 1:
                        unit_v = unit[victim]
                        if all(
                            row[dimension] + unit_v[dimension] + _TOL >= unit_b[dimension]
                            for dimension in dims
                        ):
                            best, best_ii = (fpga, victim), value
            if best is None:
                return
            fpga, victim = best
            self._place(slack[fpga], unit[victim], -1)
            self._place(slack[fpga], unit_b, 1)
            counts[victim][fpga] -= 1
            remaining[victim] += 1
            placed[victim] -= 1
            counts[bottleneck][fpga] += 1
            remaining[bottleneck] -= 1
            placed[bottleneck] += 1

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _sorted_kernels(
        self,
        impact: list[float],
        remaining: list[int],
        rule: CriticalityRule,
    ) -> list[int]:
        """Kernel indices in decreasing criticality order."""
        if rule == "footprint":
            # The classic FFD ordering: largest per-CU footprint first.
            keys = list(zip(self._per_cu_list, self._wcet_list))
        else:
            footprint = [
                per_cu * count for per_cu, count in zip(self._per_cu_list, remaining)
            ]
            if rule == "ii-impact":
                keys = list(zip(impact, footprint))
            elif rule == "resource":
                keys = list(zip(footprint, impact))
            elif rule == "wcet":
                keys = list(zip(self._wcet_list, footprint))
            else:  # pragma: no cover - guarded by the Literal type
                raise ValueError(f"unknown criticality rule {rule!r}")
        keyed = list(zip(keys, range(self._num_kernels)))
        keyed.sort(key=lambda item: item[0], reverse=True)
        return [kernel for _, kernel in keyed]


def allocate_cus(
    problem: AllocationProblem,
    totals: Mapping[str, int],
    settings: AllocatorSettings = AllocatorSettings(),
) -> AllocatorResult:
    """Convenience wrapper around :class:`GreedyAllocator`."""
    return GreedyAllocator(problem, settings).allocate(totals)


def first_fit_decreasing_allocate(
    problem: AllocationProblem, totals: Mapping[str, int]
) -> AllocatorResult:
    """Ablation baseline: plain first-fit-decreasing without criticality order.

    CUs are placed one at a time, largest per-CU footprint first, into the
    first FPGA with room (no consolidation bias, no constraint relaxation).
    Like Algorithm 1, the baseline honours the problem's ``N_k >= 1``
    constraint (eq. 16): it first seeds one CU of every kernel before packing
    the remainder, so a partial result never leaves a kernel without any CU
    while another kernel hoards the space -- without that, comparing the IIs
    of two partial allocations would be meaningless.
    """
    arrays = problem.arrays()
    num_fpgas = problem.num_fpgas
    num_kernels = arrays.num_kernels
    unit = np.ascontiguousarray(arrays.weights.T)
    # One slack row per FPGA; rows differ across device classes.
    slack = np.ascontiguousarray(arrays.fpga_capacity.T).copy()
    counts = np.zeros((num_kernels, num_fpgas), dtype=np.int64)
    remaining = np.asarray([int(totals[name]) for name in arrays.names], dtype=np.int64)

    resource_columns = [d for d in range(arrays.num_dimensions) if d != arrays.bandwidth_row]
    if resource_columns:
        footprint = unit[:, resource_columns].max(axis=1)
    else:
        footprint = np.zeros(num_kernels)
    order = sorted(range(num_kernels), key=lambda kernel: footprint[kernel], reverse=True)

    def place_one(kernel: int) -> bool:
        unit_k = unit[kernel]
        fits = np.all(unit_k <= slack + _TOL, axis=1)
        hosts = np.nonzero(fits)[0]
        if hosts.size == 0:
            return False
        fpga = int(hosts[0])
        slack[fpga] -= unit_k
        counts[kernel, fpga] += 1
        remaining[kernel] -= 1
        return True

    def place_batch(kernel: int) -> None:
        """Place all remaining CUs of one kernel, first fit, batched per FPGA.

        Equivalent to placing one CU at a time into the first FPGA with room
        (each FPGA fills up before the next is touched), but the per-FPGA
        batch sizes come from one vectorized slack division instead of a
        Python loop per CU.
        """
        unit_k = unit[kernel]
        demanding = unit_k > 0.0
        if not np.any(demanding):
            counts[kernel, 0] += remaining[kernel]
            remaining[kernel] = 0
            return
        per_dim = np.floor(
            (slack[:, demanding] + _TOL) / unit_k[demanding]
        )  # (F, demanded dims)
        room = np.maximum(per_dim.min(axis=1), 0.0).astype(np.int64)  # (F,)
        taken_before = np.concatenate(([0], np.cumsum(room)[:-1]))
        batches = np.clip(remaining[kernel] - taken_before, 0, room)
        counts[kernel] += batches
        remaining[kernel] -= int(batches.sum())
        slack[...] -= batches[:, None] * unit_k[None, :]

    # Coverage pass: one CU per kernel (eq. 16), largest footprint first.
    for kernel in order:
        if remaining[kernel] > 0:
            place_one(kernel)
    # Packing pass: the rest, first fit, one vectorized batch per kernel.
    for kernel in order:
        if remaining[kernel] > 0:
            place_batch(kernel)

    unallocated = {
        name: int(count) for name, count in zip(arrays.names, remaining) if count > 0
    }
    return AllocatorResult(
        success=not unallocated,
        counts={
            name: tuple(int(value) for value in row)
            for name, row in zip(arrays.names, counts)
        },
        constraint_relaxation=0.0,
        iterations=1,
        unallocated=unallocated,
    )
