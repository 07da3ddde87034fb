"""The spreading terms of the paper's objective (eqs. 4-5).

The only nonconvex terms of the MINLP are the spreading functions
``phi_k = sum_f h(n_kf)`` with ``h(n) = n/(1+n)``: concave, increasing and
``h(0) = 0``, which is all :mod:`repro.minlp.split_search` relies on.
"""

from __future__ import annotations


def spreading_term(n: float) -> float:
    """The per-FPGA spreading contribution ``n / (1 + n)`` (eq. 4)."""
    if n < 0:
        raise ValueError("CU count must be non-negative")
    return n / (1.0 + n)


def spreading_of_kernel(counts_per_fpga: list[float] | tuple[float, ...]) -> float:
    """Spreading function of one kernel, ``phi_k = sum_f n_kf/(1+n_kf)``."""
    return sum(spreading_term(n) for n in counts_per_fpga)
