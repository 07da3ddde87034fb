"""The multi-FPGA CU allocation problem (Section 3 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping

from ..platform.multi_fpga import MultiFPGAPlatform
from ..platform.resources import RESOURCE_KINDS, ResourceVector
from ..workloads.pipeline import Pipeline
from .objective import ObjectiveWeights, default_weights

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from .arrays import ProblemArrays


@dataclass(frozen=True)
class CapacityDimension:
    """One capacity dimension of the allocation problem.

    A dimension is either an on-chip resource kind (``bram``, ``dsp``, ...)
    or the DRAM ``bandwidth``; it carries the per-CU weight of every kernel
    and the per-FPGA capacity.  On a heterogeneous platform the capacity
    varies per FPGA: ``per_fpga`` holds the full expansion (platform FPGA
    order) and ``capacity`` the largest per-FPGA value; on a homogeneous
    platform ``per_fpga`` stays ``None`` and ``capacity`` is the uniform cap.
    """

    name: str
    weights: Mapping[str, float]
    capacity: float
    per_fpga: tuple[float, ...] | None = None

    def fpga_capacities(self, num_fpgas: int) -> tuple[float, ...]:
        """Per-FPGA capacities, expanding the uniform cap when homogeneous."""
        if self.per_fpga is not None:
            return self.per_fpga
        return (self.capacity,) * num_fpgas

    def aggregate(self, num_fpgas: int) -> float:
        """Platform-wide capacity (the RHS of the aggregated relaxation)."""
        if self.per_fpga is not None:
            return sum(self.per_fpga)
        return self.capacity * num_fpgas

    def usage(self, totals: Mapping[str, float]) -> float:
        """Capacity consumed by the given per-kernel CU counts on one FPGA."""
        return sum(self.weights.get(kernel, 0.0) * count for kernel, count in totals.items())


@dataclass(frozen=True)
class AllocationProblem:
    """A pipeline to be allocated onto a multi-FPGA platform.

    Parameters
    ----------
    pipeline:
        The application, a linear pipeline of characterised kernels.
    platform:
        The multi-FPGA platform (identical FPGAs, per-FPGA resource and
        bandwidth caps).
    weights:
        Objective weights ``alpha`` / ``beta`` (Table 4).  Defaults to pure II
        minimisation.
    """

    pipeline: Pipeline
    platform: MultiFPGAPlatform
    weights: ObjectiveWeights = ObjectiveWeights()

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #
    @property
    def kernel_names(self) -> tuple[str, ...]:
        names = self.__dict__.get("_cached_kernel_names")
        if names is None:
            names = self.pipeline.kernel_names
            object.__setattr__(self, "_cached_kernel_names", names)
        return names

    @property
    def num_fpgas(self) -> int:
        return self.platform.num_fpgas

    @property
    def wcet(self) -> dict[str, float]:
        """Per-kernel single-CU worst-case execution times (``WCET_k``).

        Memoized per instance: the solver hot loops read this thousands of
        times and the problem is frozen, so the dict can never go stale.
        """
        wcet = self.__dict__.get("_cached_wcet")
        if wcet is None:
            wcet = {kernel.name: kernel.wcet_ms for kernel in self.pipeline}
            object.__setattr__(self, "_cached_wcet", wcet)
        return wcet

    def resource_of(self, kernel_name: str) -> ResourceVector:
        return self.pipeline[kernel_name].resources

    def bandwidth_of(self, kernel_name: str) -> float:
        return self.pipeline[kernel_name].bandwidth

    # ------------------------------------------------------------------ #
    # Capacity dimensions (constraints 9-10 of the paper)
    # ------------------------------------------------------------------ #
    def capacity_dimensions(self, include_inactive: bool = False) -> tuple[CapacityDimension, ...]:
        """Per-FPGA capacity dimensions with non-trivial demand (memoized).

        A resource kind is *active* if at least one kernel demands it; the
        paper's tables only report BRAM and DSP because LUT/FF never bind.
        Bandwidth is always included when any kernel consumes it.  On a
        heterogeneous platform each dimension carries the per-FPGA capacity
        expansion (class-major platform order).
        """
        cached = getattr(self, "_cached_capacity_dimensions", None)
        if cached is None:
            cached = {}
            object.__setattr__(self, "_cached_capacity_dimensions", cached)
        if include_inactive in cached:
            return cached[include_inactive]
        homogeneous = self.platform.is_homogeneous
        resource_limits = None if homogeneous else self.platform.fpga_resource_limits()
        bandwidth_limits = None if homogeneous else self.platform.fpga_bandwidth_limits()
        dimensions: list[CapacityDimension] = []
        for kind in RESOURCE_KINDS:
            weights = {kernel.name: kernel.resources[kind] for kernel in self.pipeline}
            if include_inactive or any(value > 0 for value in weights.values()):
                if resource_limits is None:
                    capacity, per_fpga = self.platform.resource_limit[kind], None
                else:
                    per_fpga = tuple(limit[kind] for limit in resource_limits)
                    capacity = max(per_fpga)
                dimensions.append(
                    CapacityDimension(
                        name=kind, weights=weights, capacity=capacity, per_fpga=per_fpga
                    )
                )
        bandwidth_weights = {kernel.name: kernel.bandwidth for kernel in self.pipeline}
        if include_inactive or any(value > 0 for value in bandwidth_weights.values()):
            if bandwidth_limits is None:
                capacity, per_fpga = self.platform.bandwidth_limit, None
            else:
                per_fpga = tuple(bandwidth_limits)
                capacity = max(per_fpga)
            dimensions.append(
                CapacityDimension(
                    name="bandwidth",
                    weights=bandwidth_weights,
                    capacity=capacity,
                    per_fpga=per_fpga,
                )
            )
        cached[include_inactive] = tuple(dimensions)
        return cached[include_inactive]

    def arrays(self) -> "ProblemArrays":
        """Kernel-indexed NumPy view of the problem (memoized per instance).

        The vectorized solver kernels (:mod:`repro.gp.minmax`, the
        discretisation threshold search and Algorithm 1) all share these
        matrices instead of re-deriving per-kernel dicts in their hot loops.
        """
        from .arrays import problem_arrays

        return problem_arrays(self)

    def max_cus_per_fpga(self, kernel_name: str, fpga_index: int | None = None) -> int:
        """Largest CU count of one kernel that fits into one (empty) FPGA.

        Without ``fpga_index`` this is the best FPGA of the platform (the
        uniform answer on a homogeneous platform); with it, the specific
        FPGA's caps apply.  Read from the memoized :meth:`arrays`.
        """
        arrays = self.arrays()
        per_fpga = arrays.fpga_max_cus[arrays.index[kernel_name]]
        return max(per_fpga) if fpga_index is None else per_fpga[fpga_index]

    def max_total_cus(self, kernel_name: str) -> int:
        """Upper bound on the total CU count of one kernel over the platform."""
        arrays = self.arrays()
        return arrays.max_total_cus[arrays.index[kernel_name]]

    # ------------------------------------------------------------------ #
    # Quick feasibility screens
    # ------------------------------------------------------------------ #
    def is_trivially_infeasible(self) -> bool:
        """True if even one CU per kernel cannot fit on the platform.

        Checks only the aggregate capacity (a necessary condition); the exact
        and heuristic solvers perform the full per-FPGA check.
        """
        for dimension in self.capacity_dimensions():
            demand = sum(dimension.weights.values())
            if demand > dimension.aggregate(self.num_fpgas) + 1e-9:
                return True
        for name in self.kernel_names:
            if self.max_cus_per_fpga(name) < 1:
                return True
        return False

    # ------------------------------------------------------------------ #
    # Variants
    # ------------------------------------------------------------------ #
    def with_resource_constraint(self, limit_percent: float) -> "AllocationProblem":
        """Copy of the problem with a different per-FPGA resource cap.

        Every FPGA of every class gets the same cap (see
        :meth:`~repro.platform.multi_fpga.MultiFPGAPlatform.with_resource_limit`).
        """
        return replace(self, platform=self.platform.with_resource_limit(limit_percent))

    def with_weights(self, weights: ObjectiveWeights) -> "AllocationProblem":
        """Copy of the problem with different objective weights."""
        return replace(self, weights=weights)

    def with_paper_weights(self) -> "AllocationProblem":
        """Copy using the Table 4 weights for this (application, F) pair."""
        return replace(
            self, weights=default_weights(self.pipeline.name, self.platform.num_fpgas)
        )

    def describe(self) -> str:
        return (
            f"AllocationProblem({self.pipeline.name}: {len(self.pipeline)} kernels "
            f"on {self.platform.describe()}, alpha={self.weights.alpha}, "
            f"beta={self.weights.beta})"
        )
