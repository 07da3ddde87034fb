"""Allocation solutions and solve outcomes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Sequence

import numpy as np

from ..platform.resources import RESOURCE_KINDS, ResourceVector, sum_resources
from .objective import global_spreading, kernel_spreading
from .problem import AllocationProblem

#: Tolerance (percentage points) applied to capacity checks on solutions.
CAPACITY_TOLERANCE = 1e-6


def json_safe(value: Any) -> Any:
    """Deep-coerce a value into plain JSON-serialisable Python types.

    The vectorized solve path (:mod:`repro.core.arrays`,
    :mod:`repro.gp.minmax`) computes with NumPy, and its scalars/arrays can
    leak into solver metadata: ``np.float64`` hides inside ``float`` checks
    (it subclasses ``float``) but ``np.int64``, ``np.bool_`` and ``ndarray``
    all break ``json.dumps``.  Every :class:`SolveOutcome` runs its payload
    through this coercion at construction so results always serialise.
    """
    if isinstance(value, bool):  # before int: bool is an int subclass
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        return float(value)  # normalises np.float64 (a float subclass) too
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, Mapping):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [json_safe(item) for item in value]
    if isinstance(value, Enum):
        return json_safe(value.value)
    tolist = getattr(value, "tolist", None)
    if callable(tolist):  # numpy scalars and arrays, without importing numpy
        return json_safe(tolist())
    return value


def _wire_safe(value: Any) -> Any:
    """Replace non-finite floats with ``None`` for strict (RFC 8259) JSON.

    Python's ``json`` would happily emit ``NaN``/``Infinity`` tokens that
    every non-Python consumer of the HTTP API rejects, so the wire format
    encodes them as ``null`` (:meth:`SolveOutcome.from_dict` maps a missing
    or null ``lower_bound`` back to NaN).
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _wire_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_wire_safe(item) for item in value]
    return value


@dataclass(frozen=True)
class _FeasibilityKit:
    """Array view of the per-kernel demands and per-FPGA limits of a problem.

    The exact solvers call :meth:`AllocationSolution.is_feasible` once per
    candidate in their inner loop; evaluating it through per-kernel
    :class:`ResourceVector` arithmetic costs hundreds of object constructions
    per call.  This kit flattens the same numbers into four arrays once per
    problem (memoized on the frozen instance, like
    :func:`repro.core.arrays.problem_arrays`) so the check is three matrix
    comparisons.  :meth:`AllocationSolution.violations` remains the scalar
    reference path -- it produces the human-readable messages and pins the
    semantics the vectorized check must agree with.
    """

    names: tuple[str, ...]
    resource_matrix: np.ndarray  # (K, 4) per-CU demand per resource kind
    bandwidth: np.ndarray  # (K,) per-CU DRAM bandwidth demand
    resource_limits: np.ndarray  # (F, 4) per-FPGA capacity per kind
    bandwidth_limits: np.ndarray  # (F,) per-FPGA bandwidth capacity


def _feasibility_kit(problem: AllocationProblem) -> _FeasibilityKit:
    kit = getattr(problem, "_cached_feasibility_kit", None)
    if kit is None:
        names = problem.kernel_names
        platform = problem.platform
        kit = _FeasibilityKit(
            names=names,
            resource_matrix=np.array(
                [[problem.resource_of(name)[kind] for kind in RESOURCE_KINDS] for name in names],
                dtype=np.float64,
            ).reshape(len(names), len(RESOURCE_KINDS)),
            bandwidth=np.array(
                [problem.bandwidth_of(name) for name in names], dtype=np.float64
            ),
            resource_limits=np.array(
                [
                    [limit[kind] for kind in RESOURCE_KINDS]
                    for limit in platform.fpga_resource_limits()
                ],
                dtype=np.float64,
            ),
            bandwidth_limits=np.array(platform.fpga_bandwidth_limits(), dtype=np.float64),
        )
        object.__setattr__(problem, "_cached_feasibility_kit", kit)
    return kit


def counts_matrix_feasible(
    problem: AllocationProblem, counts: np.ndarray, tolerance: float = CAPACITY_TOLERANCE
) -> bool:
    """Whether a ``(kernels, FPGAs)`` float count matrix respects every
    constraint of ``problem`` (see :meth:`AllocationSolution.is_feasible`)."""
    if counts.size == 0:
        return True
    if counts.sum(axis=1).min() < 1.0:
        return False  # some kernel has no CUs (constraint 8)
    kit = _feasibility_kit(problem)
    usage = counts.T @ kit.resource_matrix  # (F, kinds)
    if np.any(usage > kit.resource_limits + tolerance):
        return False  # constraint 9
    bandwidth = counts.T @ kit.bandwidth  # (F,)
    return not np.any(bandwidth > kit.bandwidth_limits + tolerance)  # constraint 10


@dataclass(frozen=True)
class AllocationSolution:
    """A concrete assignment of compute units to FPGAs.

    Attributes
    ----------
    problem:
        The problem this solution answers.
    counts:
        ``{kernel name: (n_k1, n_k2, ..., n_kF)}`` -- integer CU counts per
        FPGA, in platform FPGA order.
    """

    problem: AllocationProblem
    counts: Mapping[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        num_fpgas = self.problem.num_fpgas
        for name in self.problem.kernel_names:
            if name not in self.counts:
                raise ValueError(f"solution is missing kernel {name!r}")
            per_fpga = self.counts[name]
            if len(per_fpga) != num_fpgas:
                raise ValueError(
                    f"kernel {name!r} has {len(per_fpga)} FPGA entries, expected {num_fpgas}"
                )
            if any(count < 0 for count in per_fpga):
                raise ValueError(f"kernel {name!r} has negative CU counts")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_totals_single_fpga(
        cls, problem: AllocationProblem, totals: Mapping[str, int]
    ) -> "AllocationSolution":
        """Place all CUs of every kernel on FPGA 0 (useful for F=1 problems)."""
        counts = {
            name: tuple([int(totals[name])] + [0] * (problem.num_fpgas - 1))
            for name in problem.kernel_names
        }
        return cls(problem=problem, counts=counts)

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_cus(self, kernel_name: str) -> int:
        """Total CU count ``N_k`` of one kernel across all FPGAs (eq. 3)."""
        return int(sum(self.counts[kernel_name]))

    def totals(self) -> dict[str, int]:
        """``{kernel: N_k}`` for every kernel."""
        return {name: self.total_cus(name) for name in self.problem.kernel_names}

    def execution_time(self, kernel_name: str) -> float:
        """``ET_k = WCET_k / N_k`` (eq. 1)."""
        total = self.total_cus(kernel_name)
        if total <= 0:
            return math.inf
        return self.problem.pipeline[kernel_name].wcet_ms / total

    @property
    def initiation_interval(self) -> float:
        """``II = max_k ET_k`` (eq. 2), in milliseconds."""
        return max(self.execution_time(name) for name in self.problem.kernel_names)

    @property
    def throughput_per_second(self) -> float:
        """Items processed per second (1000 / II[ms])."""
        ii = self.initiation_interval
        return math.inf if ii <= 0 else 1000.0 / ii

    def spreading_of(self, kernel_name: str) -> float:
        """``phi_k`` of one kernel (eq. 4)."""
        return kernel_spreading(self.counts[kernel_name])

    @property
    def spreading(self) -> float:
        """Global spreading ``phi = max_k phi_k``."""
        return global_spreading(self.counts)

    @property
    def objective(self) -> float:
        """Goal function ``g = alpha * II + beta * phi`` (eq. 5)."""
        return self.problem.weights.goal(self.initiation_interval, self.spreading)

    # ------------------------------------------------------------------ #
    # Per-FPGA usage
    # ------------------------------------------------------------------ #
    def fpga_resource_usage(self, fpga_index: int) -> ResourceVector:
        """On-chip resources used on one FPGA."""
        return sum_resources(
            self.problem.resource_of(name) * self.counts[name][fpga_index]
            for name in self.problem.kernel_names
        )

    def fpga_bandwidth_usage(self, fpga_index: int) -> float:
        """DRAM bandwidth used on one FPGA (percent)."""
        return sum(
            self.problem.bandwidth_of(name) * self.counts[name][fpga_index]
            for name in self.problem.kernel_names
        )

    def fpga_kernel_usage(self, fpga_index: int) -> dict[str, ResourceVector]:
        """Per-kernel resource usage on one FPGA (the bars of Figure 6)."""
        usage: dict[str, ResourceVector] = {}
        for name in self.problem.kernel_names:
            count = self.counts[name][fpga_index]
            if count > 0:
                usage[name] = self.problem.resource_of(name) * count
        return usage

    def used_fpgas(self) -> list[int]:
        """Indices of FPGAs hosting at least one CU."""
        return [
            f
            for f in range(self.problem.num_fpgas)
            if any(self.counts[name][f] > 0 for name in self.problem.kernel_names)
        ]

    @property
    def average_utilization(self) -> float:
        """Average over all FPGAs of the binding (max-component) resource use.

        This is the quantity on the x-axis of Figures 3b-5b ("Average
        Resource (%)"): how much of the critical resource each FPGA uses, on
        average, including FPGAs left empty by consolidation.
        """
        per_fpga = [
            self.fpga_resource_usage(f).max_component() for f in range(self.problem.num_fpgas)
        ]
        return sum(per_fpga) / len(per_fpga)

    @property
    def max_utilization(self) -> float:
        """Largest per-FPGA binding resource usage (must be <= the constraint)."""
        return max(
            self.fpga_resource_usage(f).max_component() for f in range(self.problem.num_fpgas)
        )

    # ------------------------------------------------------------------ #
    # Feasibility
    # ------------------------------------------------------------------ #
    def violations(self, tolerance: float = CAPACITY_TOLERANCE) -> list[str]:
        """Human-readable list of violated constraints (empty if feasible)."""
        problems: list[str] = []
        platform = self.problem.platform
        resource_limits = platform.fpga_resource_limits()
        bandwidth_limits = platform.fpga_bandwidth_limits()
        for name in self.problem.kernel_names:
            if self.total_cus(name) < 1:
                problems.append(f"kernel {name!r} has no CUs (constraint 8)")
        for f in range(self.problem.num_fpgas):
            usage = self.fpga_resource_usage(f)
            if usage.exceeds(resource_limits[f], tolerance=tolerance):
                problems.append(
                    f"FPGA {f + 1} resource usage {usage.max_component():.2f}% exceeds "
                    f"limit {resource_limits[f].max_component():.2f}% (constraint 9)"
                )
            bandwidth = self.fpga_bandwidth_usage(f)
            if bandwidth > bandwidth_limits[f] + tolerance:
                problems.append(
                    f"FPGA {f + 1} bandwidth {bandwidth:.2f}% exceeds "
                    f"limit {bandwidth_limits[f]:.2f}% (constraint 10)"
                )
        return problems

    def is_feasible(self, tolerance: float = CAPACITY_TOLERANCE) -> bool:
        """True if the allocation respects every constraint of the problem.

        Vectorized equivalent of ``not self.violations(tolerance=...)`` (the
        scalar loop stays authoritative for the messages); this is the form
        the exact solvers call once per candidate.
        """
        return counts_matrix_feasible(self.problem, self.counts_matrix(), tolerance)

    def counts_matrix(self) -> np.ndarray:
        """The CU counts as a dense ``(kernels, FPGAs)`` float matrix."""
        return np.array(
            [self.counts[name] for name in self.problem.kernel_names], dtype=np.float64
        ).reshape(len(self.problem.kernel_names), self.problem.num_fpgas)

    def max_usage_per_fpga(self) -> np.ndarray:
        """Binding (max-component) resource usage of every FPGA, shape (F,)."""
        kit = _feasibility_kit(self.problem)
        counts = self.counts_matrix()
        if counts.size == 0:
            return np.zeros(self.problem.num_fpgas)
        return (counts.T @ kit.resource_matrix).max(axis=1)

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def describe(self) -> str:
        lines = [
            f"Allocation of {self.problem.pipeline.name!r} on {self.problem.platform.describe()}",
            f"  II = {self.initiation_interval:.4f} ms, phi = {self.spreading:.3f}, "
            f"objective = {self.objective:.4f}",
        ]
        for f in range(self.problem.num_fpgas):
            hosted = {
                name: self.counts[name][f]
                for name in self.problem.kernel_names
                if self.counts[name][f] > 0
            }
            usage = self.fpga_resource_usage(f)
            lines.append(
                f"  FPGA {f + 1}: {hosted if hosted else 'empty'} "
                f"(max resource {usage.max_component():.1f}%, "
                f"BW {self.fpga_bandwidth_usage(f):.1f}%)"
            )
        return "\n".join(lines)


class SolveStatus(Enum):
    """Outcome classification of an allocation solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    ERROR = "error"


@dataclass(frozen=True)
class SolveOutcome:
    """Result of running one allocation method on one problem.

    Construction coerces every field to plain JSON-serialisable Python types
    (see :func:`json_safe`), so an outcome can always be dumped with
    ``json.dumps`` -- a requirement of the result cache of
    :mod:`repro.service`, which persists outcomes by content fingerprint.
    """

    method: str
    status: SolveStatus
    solution: AllocationSolution | None
    runtime_seconds: float
    lower_bound: float = math.nan
    nodes_explored: int = 0
    details: Mapping[str, object] = field(default_factory=dict)
    #: Work counters of the solve (LP solves, probes, packer search nodes,
    #: memo hits, ...) -- additive across solves, so services can aggregate
    #: them and performance tests can assert per-solve work budgets.
    counters: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "runtime_seconds", float(self.runtime_seconds))
        object.__setattr__(self, "lower_bound", float(self.lower_bound))
        object.__setattr__(self, "nodes_explored", int(self.nodes_explored))
        object.__setattr__(self, "details", json_safe(self.details))
        object.__setattr__(self, "counters", json_safe(self.counters))

    # ------------------------------------------------------------------ #
    # JSON round trip
    # ------------------------------------------------------------------ #
    def to_dict(self, include_problem: bool = False) -> dict[str, Any]:
        """JSON-compatible dictionary, invertible by :meth:`from_dict`.

        The problem itself is omitted unless ``include_problem`` is set: the
        service cache keys payloads by a fingerprint of the request, so the
        caller always holds an equivalent problem to re-bind the solution to.
        Non-finite floats (the default ``lower_bound`` is NaN) are encoded as
        ``null`` so the document is strict RFC 8259 JSON -- parseable by any
        client, not just Python's ``NaN``-tolerant ``json`` module.
        """
        payload: dict[str, Any] = {
            "method": self.method,
            "status": self.status.value,
            "runtime_seconds": self.runtime_seconds,
            "lower_bound": _wire_safe(self.lower_bound),
            "nodes_explored": self.nodes_explored,
            "details": _wire_safe(self.details),  # already json_safe from __post_init__
            "counters": _wire_safe(self.counters),
            "solution": (
                {"counts": {name: list(counts) for name, counts in self.solution.counts.items()}}
                if self.solution is not None
                else None
            ),
        }
        if include_problem:
            if self.solution is None:
                raise ValueError(
                    "cannot embed the problem: this outcome has no solution; "
                    "serialise the problem separately with problem_to_dict"
                )
            from ..workloads.serialization import problem_to_dict

            payload["problem"] = problem_to_dict(self.solution.problem)
        return payload

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], problem: AllocationProblem | None = None
    ) -> "SolveOutcome":
        """Rebuild an outcome from :meth:`to_dict` output.

        ``problem`` supplies the problem to bind the solution to; when absent
        the payload must embed one (``to_dict(include_problem=True)``).
        """
        if problem is None and "problem" in payload:
            from ..workloads.serialization import problem_from_dict

            problem = problem_from_dict(payload["problem"])
        solution_payload = payload.get("solution")
        solution: AllocationSolution | None = None
        if solution_payload is not None:
            if problem is None:
                raise ValueError(
                    "payload carries a solution but no problem to bind it to; "
                    "pass problem= or serialise with include_problem=True"
                )
            solution = solution_from_assignment(problem, solution_payload["counts"])
        try:
            status = SolveStatus(payload["status"])
        except (KeyError, ValueError) as error:
            raise ValueError(f"invalid outcome status: {error}") from error
        lower_bound = payload.get("lower_bound")
        return cls(
            method=str(payload["method"]),
            status=status,
            solution=solution,
            runtime_seconds=float(payload["runtime_seconds"]),
            lower_bound=math.nan if lower_bound is None else float(lower_bound),
            nodes_explored=int(payload.get("nodes_explored", 0)),
            details=dict(payload.get("details", {})),
            counters=dict(payload.get("counters", {})),
        )

    @property
    def succeeded(self) -> bool:
        return self.solution is not None and self.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
        )

    @property
    def initiation_interval(self) -> float:
        return self.solution.initiation_interval if self.solution else math.inf

    @property
    def objective(self) -> float:
        return self.solution.objective if self.solution else math.inf

    def summary(self) -> str:
        if not self.succeeded:
            return f"{self.method}: {self.status.value} ({self.runtime_seconds:.3f} s)"
        assert self.solution is not None
        return (
            f"{self.method}: II={self.solution.initiation_interval:.3f} ms, "
            f"phi={self.solution.spreading:.3f}, avg util="
            f"{self.solution.average_utilization:.1f}%, "
            f"{self.runtime_seconds:.3f} s"
        )


def solution_from_assignment(
    problem: AllocationProblem, assignment: Mapping[str, Sequence[int]]
) -> AllocationSolution:
    """Build a solution from any mapping of per-FPGA CU count sequences."""
    counts = {name: tuple(int(c) for c in assignment[name]) for name in problem.kernel_names}
    return AllocationSolution(problem=problem, counts=counts)
