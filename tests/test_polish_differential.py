"""Differential test: the list-based repair pass against its NumPy oracle.

``GreedyAllocator._polish`` runs on plain lists; ``tests/polish_oracle.py``
keeps the array form it replaced.  Both run on the same partial
allocations -- a greedy pass over inflated totals on a case study or a
mixed fleet, then random evictions -- and must leave identical counts,
unplaced CUs and per-FPGA slack, bit for bit.
"""

from __future__ import annotations

import copy
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polish_oracle import numpy_polish
from repro.core.allocator import AllocatorSettings, GreedyAllocator
from repro.core.problem import AllocationProblem
from repro.platform.presets import mixed_fleet
from repro.reporting.experiments import case_study
from repro.workloads.alexnet import alexnet_fx16

CASES = ("alex-16", "alex-32", "vgg-16", "mixed")
RULES = ("ii-impact", "resource", "wcet", "footprint")


def build_problem(case: str, limit: float) -> AllocationProblem:
    if case == "mixed":
        return AllocationProblem(pipeline=alexnet_fx16(), platform=mixed_fleet(2, 2, limit))
    return case_study(case, limit)


@st.composite
def partial_allocations(draw):
    case = draw(st.sampled_from(CASES))
    limit = draw(st.floats(min_value=30.0, max_value=95.0))
    allocator = GreedyAllocator(build_problem(case, limit), AllocatorSettings())
    totals = [
        draw(st.integers(min_value=1, max_value=12)) for _ in range(allocator._num_kernels)
    ]
    impact = [
        math.inf if count <= 1 else wcet / (count - 1) - wcet / count
        for wcet, count in zip(allocator._wcet_list, totals)
    ]
    tables = allocator._caps_tables(draw(st.sampled_from((0.0, 1.0, 5.0))))
    counts, remaining, slack = allocator._allocate_once(
        totals, tables, draw(st.sampled_from(RULES)), impact
    )
    # Random evictions give the repair pass room and swap partners to use.
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kernel = draw(st.integers(0, allocator._num_kernels - 1))
        fpga = draw(st.integers(0, allocator._num_fpgas - 1))
        if counts[kernel][fpga] > 0:
            counts[kernel][fpga] -= 1
            remaining[kernel] += 1
            row = slack[fpga]
            for dimension, value in enumerate(allocator._unit_lists[kernel]):
                row[dimension] += value
    return allocator, counts, remaining, slack


@given(partial_allocations())
@settings(max_examples=200, deadline=None)
def test_list_polish_matches_numpy_oracle(instance):
    allocator, counts, remaining, slack = instance
    expected_counts = np.asarray(counts, dtype=np.int64)
    expected_remaining = np.asarray(remaining, dtype=np.int64)
    expected_slack = np.asarray(slack, dtype=np.float64)
    numpy_polish(allocator, expected_counts, expected_remaining, expected_slack)

    counts, remaining, slack = copy.deepcopy((counts, remaining, slack))
    allocator._polish(counts, remaining, slack)
    assert counts == expected_counts.tolist()
    assert remaining == expected_remaining.tolist()
    assert slack == expected_slack.tolist()
