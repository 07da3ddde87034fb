"""First step of the heuristic: the relaxed Geometric Program (Sec. 3.2.1).

Setting ``beta = 0`` and letting ``n_kf`` take real values makes the problem
symmetric across the ``F`` identical FPGAs, so the CUs distribute equally and
only the totals ``N̂_k = F * n̂_k`` matter.  The resulting program
(eqs. 14-18) minimises the relaxed initiation interval subject to aggregated
(platform-wide) resource and bandwidth constraints.  It is a min-max program
whose capacity usage is piecewise ``a + b / II`` between the sorted
breakpoints ``WCET_k / N_k^min``, so :mod:`repro.gp.minmax` computes its
exact optimum in closed form from the kernel-indexed arrays memoized on the
problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..gp.minmax import VectorizedMinMaxProblem
from ..memo import Memo, value_key
from ..obs.trace import span
from .problem import AllocationProblem


@dataclass(frozen=True)
class GPStepResult:
    """Outcome of the GP step: relaxed II and fractional total CU counts."""

    ii_hat: float
    counts_hat: Mapping[str, float]

    def per_fpga_counts(self, num_fpgas: int) -> dict[str, float]:
        """The symmetric per-FPGA counts ``n̂_k = N̂_k / F`` (eq. 11)."""
        return {name: value / num_fpgas for name, value in self.counts_hat.items()}


def build_vectorized_minmax(problem: AllocationProblem) -> VectorizedMinMaxProblem:
    """Array form of the aggregated min-max problem (eqs. 14-18).

    Shares the kernel-indexed matrices memoized on the problem; capacities
    are the platform-wide aggregates (per-FPGA capacity times ``F``).  Box
    bounds are supplied per solve.
    """
    arrays = problem.arrays()
    return VectorizedMinMaxProblem(
        names=arrays.names,
        wcet=arrays.wcet,
        weights=arrays.weights,
        capacity=arrays.aggregate_capacity,
    )


# --------------------------------------------------------------------------- #
# Cross-call memo: the exact solvers bound and seed from the same relaxed GP
# the heuristic solves, so one table/sweep pass computes each optimum once.
# The relaxation is the beta = 0 symmetric program -- objective weights never
# enter it -- so every weight variant of a problem shares the entry.
# --------------------------------------------------------------------------- #
_memo: "Memo[tuple, GPStepResult]" = Memo(256)


def gp_step_cache_clear() -> None:
    """Empty the cross-call memo (used by tests and benchmarks)."""
    _memo.clear()


def solve_gp_step(problem: AllocationProblem) -> GPStepResult:
    """Solve the relaxed GP and return ``(ÎI, N̂_k)``.

    Results are memoized by problem value across calls (infeasibility is not;
    the error path re-derives its message).

    Raises
    ------
    repro.gp.errors.InfeasibleError
        If even one CU per kernel exceeds the aggregated platform capacity.
    """
    with span("gp_step") as trace_span:
        key = value_key(problem.pipeline, problem.platform)
        if key is not None:
            cached = _memo.get(key)
            if cached is not None:
                if trace_span is not None:
                    trace_span.attributes["cached"] = True
                return cached
        result = _solve_gp_step_uncached(problem)
        if key is not None:
            _memo.put(key, result)
        return result


def _solve_gp_step_uncached(problem: AllocationProblem) -> GPStepResult:
    arrays = problem.arrays()
    vectorized = build_vectorized_minmax(problem)
    max_counts = arrays.explicit_max if np.any(np.isfinite(arrays.explicit_max)) else None
    ii_hat, count_vector = vectorized.solve(max_counts=max_counts)
    return GPStepResult(ii_hat=ii_hat, counts_hat=arrays.mapping(count_vector))
