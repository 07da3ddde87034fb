"""Kernel-indexed array form of an allocation problem (the vectorized core).

The scalar model layers (:mod:`repro.core.problem`, :mod:`repro.gp.minmax`)
index everything by kernel *name*, which reads well but makes the hot solver
loops pay for a dict lookup per kernel per iteration.  This module flattens a
problem into NumPy arrays once:

* ``wcet``      -- per-kernel single-CU worst-case execution times, shape (K,)
* ``weights``   -- per-CU demand of every active capacity dimension, shape
  (D, K); the rows match :meth:`AllocationProblem.capacity_dimensions`
  (on-chip resource kinds first, DRAM bandwidth last when active)
* ``capacity``  -- the per-FPGA capacity of each dimension, shape (D,)
* ``fpga_max_cus`` / ``max_total_cus`` -- per-kernel CU caps, one per FPGA
  and over the whole platform (the bounds behind
  :meth:`AllocationProblem.max_cus_per_fpga` and
  :meth:`AllocationProblem.max_total_cus`)

The arrays are computed lazily and memoized per problem instance (problems
are frozen, so the cache can never go stale), and every vectorized consumer
-- the closed-form GP step of :mod:`repro.gp.minmax`, the discretisation
threshold search and Algorithm 1 -- shares the same matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .problem import AllocationProblem

#: Attribute used to memoize the arrays on the (frozen) problem instance.
_CACHE_ATTRIBUTE = "_cached_problem_arrays"


@dataclass(frozen=True)
class ProblemArrays:
    """Array view of one :class:`~repro.core.problem.AllocationProblem`."""

    names: tuple[str, ...]
    index: Mapping[str, int]
    wcet: np.ndarray  # (K,) single-CU WCET per kernel
    dimension_names: tuple[str, ...]  # active capacity dimensions
    weights: np.ndarray  # (D, K) per-CU demand per dimension
    capacity: np.ndarray  # (D,) per-FPGA cap (uniform; max per FPGA if mixed)
    explicit_max: np.ndarray  # (K,) per-kernel CU cap (inf when unbounded)
    bandwidth_row: int  # row of the bandwidth dimension, -1 when inactive
    fpga_capacity: np.ndarray  # (D, F) per-FPGA caps (columns differ across classes)
    aggregate_capacity: np.ndarray  # (D,) platform-wide capacity
    fpga_max_cus: tuple[tuple[int, ...], ...]  # (K, F) CUs of a kernel one empty FPGA fits
    max_total_cus: tuple[int, ...]  # (K,) CUs of a kernel the platform fits

    @property
    def num_kernels(self) -> int:
        return len(self.names)

    @property
    def num_dimensions(self) -> int:
        return len(self.dimension_names)

    # ------------------------------------------------------------------ #
    # Conversions between name-keyed mappings and kernel-indexed vectors
    # ------------------------------------------------------------------ #
    def vector(self, values: Mapping[str, float], default: float = 0.0) -> np.ndarray:
        """Kernel-indexed vector from a name-keyed mapping."""
        return np.asarray(
            [float(values.get(name, default)) for name in self.names], dtype=np.float64
        )

    def mapping(self, vector: Iterable[float]) -> dict[str, float]:
        """Name-keyed mapping from a kernel-indexed vector."""
        return {name: float(value) for name, value in zip(self.names, vector)}

    def int_mapping(self, vector: Iterable[float]) -> dict[str, int]:
        """Name-keyed integer mapping from a kernel-indexed vector."""
        return {name: int(round(float(value))) for name, value in zip(self.names, vector)}

    # ------------------------------------------------------------------ #
    # Vectorized capacity checks
    # ------------------------------------------------------------------ #
    def aggregate_feasible(
        self, counts: np.ndarray, num_fpgas: int, tolerance: float = 1e-9
    ) -> bool:
        """Aggregated capacity constraints (eqs. 17-18) for total CU counts.

        ``num_fpgas`` is retained for signature compatibility; the aggregate
        capacity is precomputed per problem (and accounts for per-class caps
        on heterogeneous platforms).
        """
        del num_fpgas
        return bool(np.all(self.weights @ counts <= self.aggregate_capacity + tolerance))

    def achieved_ii(self, counts: np.ndarray) -> float:
        """Initiation interval of total CU counts: ``max_k WCET_k / N_k``."""
        return float(np.max(self.wcet / counts))


def build_problem_arrays(problem: "AllocationProblem") -> ProblemArrays:
    """Flatten a problem into :class:`ProblemArrays` (no memoization)."""
    names = problem.kernel_names
    index = {name: position for position, name in enumerate(names)}
    wcet = np.asarray([problem.wcet[name] for name in names], dtype=np.float64)
    dimensions = problem.capacity_dimensions()
    weights = np.asarray(
        [[dimension.weights.get(name, 0.0) for name in names] for dimension in dimensions],
        dtype=np.float64,
    ).reshape(len(dimensions), len(names))
    capacity = np.asarray([dimension.capacity for dimension in dimensions], dtype=np.float64)
    num_fpgas = problem.num_fpgas
    fpga_capacity = np.asarray(
        [dimension.fpga_capacities(num_fpgas) for dimension in dimensions], dtype=np.float64
    ).reshape(len(dimensions), num_fpgas)
    # The homogeneous aggregate stays the exact product the solvers always
    # used (a float sum of F equal terms need not equal capacity * F).
    if all(dimension.per_fpga is None for dimension in dimensions):
        aggregate_capacity = capacity * num_fpgas
    else:
        aggregate_capacity = fpga_capacity.sum(axis=1)
    explicit_max = np.asarray(
        [
            float(kernel.max_cus) if kernel.max_cus is not None else np.inf
            for kernel in problem.pipeline
        ],
        dtype=np.float64,
    )
    bandwidth_row = next(
        (d for d, dimension in enumerate(dimensions) if dimension.name == "bandwidth"), -1
    )
    # Exact integer CU caps, derived once per device class and expanded to
    # the class-major FPGA order.
    classes = problem.platform.device_classes
    fpga_classes = problem.platform.fpga_class_indices()
    fpga_max_cus = []
    max_total_cus = []
    for kernel in problem.pipeline:
        per_class = [
            kernel.max_cus_per_fpga(device_class.resource_limit, device_class.bandwidth_limit)
            for device_class in classes
        ]
        total = sum(device_class.count * cus for device_class, cus in zip(classes, per_class))
        if kernel.max_cus is not None:
            total = min(total, kernel.max_cus)
        fpga_max_cus.append(tuple(per_class[c] for c in fpga_classes))
        max_total_cus.append(total)
    return ProblemArrays(
        names=names,
        index=index,
        wcet=wcet,
        dimension_names=tuple(dimension.name for dimension in dimensions),
        weights=weights,
        capacity=capacity,
        explicit_max=explicit_max,
        bandwidth_row=bandwidth_row,
        fpga_capacity=fpga_capacity,
        aggregate_capacity=aggregate_capacity,
        fpga_max_cus=tuple(fpga_max_cus),
        max_total_cus=tuple(max_total_cus),
    )


def problem_arrays(problem: "AllocationProblem") -> ProblemArrays:
    """Memoized array view of a problem.

    Problems are frozen dataclasses, so the arrays are computed once per
    instance and stored on it (identity-keyed -- no hashing of the whole
    pipeline on every access).
    """
    cached = getattr(problem, _CACHE_ATTRIBUTE, None)
    if cached is None:
        cached = build_problem_arrays(problem)
        object.__setattr__(problem, _CACHE_ATTRIBUTE, cached)
    return cached
