"""MINLP+G against its name-keyed reference search.

:func:`repro.core.exact.solve_exact_weighted` indexes its branch and bound
by position (array boxes, array branching and rounding).
``tests/minlpg_oracle.py`` keeps the search it replaced, keyed by variable
name.  Both run the same node relaxation, so every outcome document --
allocation, lower bound, gap, node count and every counter -- must match
byte for byte.  The II search's scalar cut-model
minimiser must likewise match its NumPy form bit for bit.
"""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings, strategies as st

from minlpg_oracle import numpy_cut_model_minimum, solve_exact_weighted_by_name
from repro.core.exact import ExactSettings, solve_exact_weighted
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.core.relaxations import _cut_model_minimum
from repro.platform.presets import aws_f1, mixed_fleet
from repro.reporting.experiments import case_study
from repro.workloads.alexnet import alexnet_fx16
from repro.workloads.synthetic import SyntheticSpec, random_pipeline

LIMITS = st.floats(50.0, 95.0).map(lambda limit: round(limit, 2))
MAX_NODES = st.sampled_from((3, 20))


def document(outcome) -> str:
    payload = outcome.to_dict()
    payload.pop("runtime_seconds")
    return json.dumps(payload, sort_keys=True)


def assert_matches_reference(problem: AllocationProblem, max_nodes: int) -> None:
    exact = ExactSettings(max_nodes=max_nodes)
    produced = solve_exact_weighted(problem, exact)
    expected = solve_exact_weighted_by_name(problem, exact)
    assert document(produced) == document(expected)


@settings(max_examples=10, deadline=None)
@given(app=st.sampled_from(("alex-16", "alex-32", "vgg-16")), limit=LIMITS, max_nodes=MAX_NODES)
def test_case_studies_match(app, limit, max_nodes):
    assert_matches_reference(case_study(app, limit), max_nodes)


@settings(max_examples=10, deadline=None)
@given(
    num_fpgas=st.sampled_from((1, 2, 4, 8)),
    seed=st.integers(0, 10_000),
    num_kernels=st.integers(2, 6),
    limit=LIMITS,
    beta=st.sampled_from((0.5, 2.0, 10.0)),
    max_nodes=MAX_NODES,
)
def test_random_pipelines_match(num_fpgas, seed, num_kernels, limit, beta, max_nodes):
    problem = AllocationProblem(
        pipeline=random_pipeline(SyntheticSpec(num_kernels=num_kernels), seed=seed),
        platform=aws_f1(num_fpgas=num_fpgas, resource_limit_percent=limit),
        weights=ObjectiveWeights(alpha=1.0, beta=beta),
    )
    assert_matches_reference(problem, max_nodes)


@pytest.mark.parametrize("limit, max_nodes", [(60.0, 3), (70.0, 20), (85.0, 20)])
def test_heterogeneous_platform_matches(limit, max_nodes):
    problem = AllocationProblem(
        pipeline=alexnet_fx16(),
        platform=mixed_fleet(2, 2, resource_limit_percent=limit),
        weights=ObjectiveWeights(alpha=1.0, beta=1.0),
    )
    assert_matches_reference(problem, max_nodes)


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


#: Slopes drawn from a small pool repeat (parallel tangents) and include 0.
SLOPES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, 2.5)),
    st.floats(-50.0, 50.0),
    st.floats(0.0, 1e-6),
)


@settings(max_examples=400, deadline=None)
@given(
    alpha=st.sampled_from((0.0, 1.0, 3.7)),
    beta=st.floats(1e-3, 100.0),
    s_low=st.floats(1e-3, 10.0),
    width=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    data=st.data(),
)
def test_scalar_cut_model_matches_numpy(alpha, beta, s_low, width, data):
    s_high = s_low + width
    count = data.draw(st.integers(1, 6))
    points = data.draw(st.lists(st.floats(s_low, s_high), min_size=count, max_size=count))
    phis = data.draw(st.lists(st.floats(0.0, 50.0), min_size=count, max_size=count))
    slopes = data.draw(st.lists(SLOPES, min_size=count, max_size=count))
    scalar = _cut_model_minimum(alpha, beta, s_low, s_high, points, phis, slopes)
    vector = numpy_cut_model_minimum(alpha, beta, s_low, s_high, points, phis, slopes)
    assert tuple(map(bits, scalar)) == tuple(map(bits, vector))
