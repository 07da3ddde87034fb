"""First step of the heuristic: the relaxed Geometric Program (Sec. 3.2.1).

Setting ``beta = 0`` and letting ``n_kf`` take real values makes the problem
symmetric across the ``F`` identical FPGAs, so the CUs distribute equally and
only the totals ``N̂_k = F * n̂_k`` matter.  The resulting program
(eqs. 14-18) minimises the relaxed initiation interval subject to aggregated
(platform-wide) resource and bandwidth constraints.

Four interchangeable backends solve it:

* ``"bisection"`` (default): the vectorized exact min-max solver of
  :mod:`repro.gp.minmax`, operating on the kernel-indexed arrays memoized on
  the problem; fastest and used by the heuristic.
* ``"bisection-scalar"``: the original name-keyed bisection solver, kept as
  a cross-check reference for the vectorized kernel (the parity tests assert
  the two agree on every case study).
* ``"slsqp"`` and ``"interior-point"``: the general GP backends operating on
  the posynomial model, used to cross-validate the bisection optimum and as
  drop-in replacements for GPkit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..gp import GPModel, Monomial, Variable, solve as solve_gp
from ..gp.errors import InfeasibleError
from ..gp.minmax import CapacityConstraint, MinMaxLatencyProblem, VectorizedMinMaxProblem
from ..obs.trace import span
from .problem import AllocationProblem

#: Name of the initiation-interval variable in the posynomial model.
II_VARIABLE = "II"


@dataclass(frozen=True)
class GPStepResult:
    """Outcome of the GP step: relaxed II and fractional total CU counts."""

    ii_hat: float
    counts_hat: Mapping[str, float]
    backend: str

    def per_fpga_counts(self, num_fpgas: int) -> dict[str, float]:
        """The symmetric per-FPGA counts ``n̂_k = N̂_k / F`` (eq. 11)."""
        return {name: value / num_fpgas for name, value in self.counts_hat.items()}


def build_minmax_problem(
    problem: AllocationProblem,
    min_counts: Mapping[str, float] | None = None,
    max_counts: Mapping[str, float] | None = None,
) -> MinMaxLatencyProblem:
    """Build the aggregated min-max-latency problem (eqs. 14-18).

    ``min_counts`` / ``max_counts`` override the default bounds
    (``N̂_k >= 1``, no upper bound); a branch-and-bound over the totals uses
    them to encode its box constraints.
    """
    wcet = problem.wcet
    capacities = [
        CapacityConstraint(
            name=dimension.name,
            weights=dimension.weights,
            capacity=dimension.aggregate(problem.num_fpgas),
        )
        for dimension in problem.capacity_dimensions()
    ]
    lower = {name: 1.0 for name in wcet}
    if min_counts:
        for name, value in min_counts.items():
            lower[name] = max(lower.get(name, 1.0), float(value))
    upper: dict[str, float] | None = None
    explicit_upper = {
        kernel.name: float(kernel.max_cus)
        for kernel in problem.pipeline
        if kernel.max_cus is not None
    }
    if max_counts or explicit_upper:
        upper = dict(explicit_upper)
        if max_counts:
            for name, value in max_counts.items():
                upper[name] = min(upper.get(name, float(value)), float(value))
    return MinMaxLatencyProblem(
        wcet=wcet, min_counts=lower, capacities=capacities, max_counts=upper
    )


def build_vectorized_minmax(problem: AllocationProblem) -> VectorizedMinMaxProblem:
    """Array form of the aggregated min-max problem (eqs. 14-18).

    Shares the kernel-indexed matrices memoized on the problem; capacities
    are the platform-wide aggregates (per-FPGA capacity times ``F``).  Box
    bounds are supplied per solve, so one instance serves every node of a
    branch-and-bound over the totals.
    """
    arrays = problem.arrays()
    return VectorizedMinMaxProblem(
        names=arrays.names,
        wcet=arrays.wcet,
        weights=arrays.weights,
        capacity=arrays.aggregate_capacity,
    )


def build_gp_model(problem: AllocationProblem) -> GPModel:
    """Build the posynomial form of the relaxed problem (eqs. 14-18)."""
    model = GPModel(name=f"gp-step[{problem.pipeline.name}]")
    ii = model.new_variable(II_VARIABLE)
    count_vars: dict[str, Variable] = {}
    for kernel in problem.pipeline:
        variable = model.new_variable(f"N[{kernel.name}]")
        count_vars[kernel.name] = variable
        # Eq. 15: WCET_k / N_k <= II  <=>  WCET_k * II^-1 * N_k^-1 <= 1.
        model.add_constraint(Monomial(kernel.wcet_ms) / (ii * variable) <= 1.0)
        # Eq. 16: N_k >= 1.
        model.add_lower_bound(variable, 1.0)
        if kernel.max_cus is not None:
            model.add_upper_bound(variable, float(kernel.max_cus))
    # Eqs. 17-18: aggregated capacity constraints, one per active dimension.
    for dimension in problem.capacity_dimensions():
        total_capacity = dimension.aggregate(problem.num_fpgas)
        terms = None
        for kernel_name, weight in dimension.weights.items():
            if weight <= 0:
                continue
            term = (weight / total_capacity) * count_vars[kernel_name]
            terms = term if terms is None else terms + term
        if terms is not None:
            model.add_constraint(terms <= 1.0)
    model.set_objective(ii)
    return model


# --------------------------------------------------------------------------- #
# Cross-call memo: the exact solvers bound and seed from the same relaxed GP
# the heuristic solves, so one table/sweep pass computes each optimum once.
# The relaxation is the beta = 0 symmetric program -- objective weights never
# enter it -- so every weight variant of a problem shares the entry.
# --------------------------------------------------------------------------- #
_MEMO_MAX_ENTRIES = 256
_memo: "OrderedDict[tuple, GPStepResult]" = OrderedDict()
_memo_lock = threading.Lock()
_memo_hits = 0
_memo_misses = 0


def gp_step_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the cross-call GP-step memo."""
    return {"hits": _memo_hits, "misses": _memo_misses, "entries": len(_memo)}


def gp_step_cache_clear() -> None:
    """Empty the cross-call memo (used by tests and benchmarks)."""
    global _memo_hits, _memo_misses
    with _memo_lock:
        _memo.clear()
        _memo_hits = 0
        _memo_misses = 0


def _memo_key(problem: AllocationProblem, backend: str) -> tuple | None:
    """Value-based memo key; ``None`` when the problem is unhashable."""
    try:
        key = (problem.pipeline, problem.platform, backend)
        hash(key)
    except TypeError:
        return None
    return key


def solve_gp_step(problem: AllocationProblem, backend: str = "bisection") -> GPStepResult:
    """Solve the relaxed GP and return ``(ÎI, N̂_k)``.

    Results are memoized by problem value across calls (infeasibility is not;
    the error path re-derives its message).

    Raises
    ------
    repro.gp.errors.InfeasibleError
        If even one CU per kernel exceeds the aggregated platform capacity.
    """
    global _memo_hits, _memo_misses
    with span("gp_step") as trace_span:
        key = _memo_key(problem, backend)
        if key is not None:
            with _memo_lock:
                cached = _memo.get(key)
                if cached is not None:
                    _memo.move_to_end(key)
                    _memo_hits += 1
                    if trace_span is not None:
                        trace_span.attributes["cached"] = True
                    return cached
                _memo_misses += 1
        result = _solve_gp_step_uncached(problem, backend)
        if key is not None:
            with _memo_lock:
                if len(_memo) >= _MEMO_MAX_ENTRIES:
                    _memo.popitem(last=False)
                _memo[key] = result
        if trace_span is not None:
            trace_span.attributes["backend"] = backend
        return result


def _solve_gp_step_uncached(problem: AllocationProblem, backend: str) -> GPStepResult:
    if backend == "bisection":
        arrays = problem.arrays()
        vectorized = build_vectorized_minmax(problem)
        max_counts = arrays.explicit_max if np.any(np.isfinite(arrays.explicit_max)) else None
        ii_hat, count_vector = vectorized.solve(max_counts=max_counts)
        return GPStepResult(
            ii_hat=ii_hat, counts_hat=arrays.mapping(count_vector), backend=backend
        )
    if backend == "bisection-scalar":
        minmax = build_minmax_problem(problem)
        ii_hat, counts = minmax.solve()
        return GPStepResult(ii_hat=ii_hat, counts_hat=counts, backend=backend)

    model = build_gp_model(problem)
    initial = _initial_point(problem)
    result = solve_gp(model, backend=backend, initial_values=initial)
    if not result.is_optimal:
        raise InfeasibleError(
            f"GP backend {backend!r} reported {result.status.value} for the relaxed problem"
        )
    counts = {
        kernel.name: result.values[f"N[{kernel.name}]"] for kernel in problem.pipeline
    }
    return GPStepResult(ii_hat=result.values[II_VARIABLE], counts_hat=counts, backend=backend)


def _initial_point(problem: AllocationProblem) -> dict[str, float]:
    """A feasible starting point: one CU per kernel, II at its single-CU value.

    Feasible whenever the aggregated capacity admits one CU per kernel, which
    is exactly the feasibility condition of the relaxed problem.
    """
    values = {f"N[{kernel.name}]": 1.0 for kernel in problem.pipeline}
    values[II_VARIABLE] = max(kernel.wcet_ms for kernel in problem.pipeline) * 1.001
    return values
