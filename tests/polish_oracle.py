"""Reference repair pass for Algorithm 1: the NumPy form of ``_polish``.

:meth:`repro.core.allocator.GreedyAllocator._polish` runs on plain lists.
This is the array form it replaced, kept as its differential oracle: the
same bottleneck choice (first ``argmax``), the same runner-up order (stable
``argsort``), the same swap choice (first minimum in (FPGA, kernel) order)
and the same ``+ _TOL`` comparisons, evaluated as one vectorized step per
iteration.  It reads only the allocator's per-CU demand and WCET tables.
"""

from __future__ import annotations

import numpy as np

from repro.core.allocator import _TOL


def max_units(allocator, slack: np.ndarray, kernel: int) -> np.ndarray:
    """How many CUs of one kernel each FPGA can still host, shape (F,)."""
    row = np.asarray(allocator._unit_lists[kernel])
    columns = np.nonzero(row > 0)[0]
    if columns.size == 0:
        return np.full(slack.shape[0], 10**9, dtype=np.int64)
    with np.errstate(over="ignore"):
        ratios = slack[:, columns] / row[columns]
    limits = np.floor(ratios.min(axis=1) + _TOL)
    limits[~np.isfinite(limits)] = 10**9
    return np.minimum(limits, 10**9).astype(np.int64)


def numpy_polish(allocator, counts: np.ndarray, remaining: np.ndarray, slack: np.ndarray) -> None:
    """Rebalance a partial allocation in place: ``counts`` (K, F) int,
    ``remaining`` (K,) int and ``slack`` (F, D) float arrays."""
    wcet = np.asarray(allocator._wcet_list)
    unit = np.asarray(allocator._unit_lists)
    num_kernels = len(wcet)

    for _ in range(64 * num_kernels):
        if not remaining.any():
            return
        placed = counts.sum(axis=1)
        exec_time = np.divide(wcet, placed, out=np.full(num_kernels, np.inf), where=placed > 0)
        bottleneck = int(np.argmax(exec_time))
        if remaining[bottleneck] <= 0:
            return
        current_ii = float(exec_time[bottleneck])
        unit_b = unit[bottleneck]

        # 1) Free slack somewhere?
        direct = np.nonzero(max_units(allocator, slack, bottleneck) >= 1)[0]
        if direct.size:
            fpga = int(direct[0])
            slack[fpga] -= unit_b
            counts[bottleneck, fpga] += 1
            remaining[bottleneck] -= 1
            continue

        # 2) Swap: evict one CU of another kernel if the net II improves.
        new_bottleneck_et = wcet[bottleneck] / (placed[bottleneck] + 1)
        victim_et = np.divide(
            wcet, placed - 1, out=np.full(num_kernels, np.inf), where=placed > 1
        )
        top_order = np.argsort(-exec_time, kind="stable")[:3]
        runners = [int(k) for k in top_order if k != bottleneck][:2]
        third = np.full(num_kernels, exec_time[runners[0]] if runners else 0.0)
        if runners:
            third[runners[0]] = exec_time[runners[1]] if len(runners) > 1 else 0.0
        new_ii = np.maximum(victim_et, max(new_bottleneck_et, 0.0))
        np.maximum(new_ii, third, out=new_ii)
        eligible = (placed >= 2) & (new_ii < current_ii - 1e-12)
        eligible[bottleneck] = False
        if not eligible.any():
            return
        frees_enough = np.all(
            slack[:, None, :] + unit[None, :, :] + _TOL >= unit_b[None, None, :], axis=2
        )
        feasible = frees_enough & (counts.T >= 1) & eligible[None, :]
        if not feasible.any():
            return
        score = np.where(feasible, new_ii[None, :], np.inf)
        flat_best = int(np.argmin(score))  # first minimum in (FPGA, kernel) order
        fpga, victim = divmod(flat_best, num_kernels)
        if not np.isfinite(score[fpga, victim]):
            return
        slack[fpga] += unit[victim]
        counts[victim, fpga] -= 1
        remaining[victim] += 1
        slack[fpga] -= unit_b
        counts[bottleneck, fpga] += 1
        remaining[bottleneck] -= 1
