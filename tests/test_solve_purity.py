"""An outcome is a function of its request alone.

Solving one request after others in the same process must give the
document a solve with every memo cleared gives: no memo tier may carry
state from one solve into another's answer.  The wall clock
(``runtime_seconds``) is the only key allowed to differ, plus, for the
decomposed ``minlp`` method, the work ``counters``: its packing memo still
spares later solves some packer probes, which changes how much work a solve
reports but never its answer.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.core.exact import ExactSettings
from repro.core.solvers import solve
from repro.reporting.experiments import case_study
from repro.reporting.trace import cold_solver_caches


def document(method: str, app: str, limit: float, max_nodes: int) -> str:
    """The outcome document of one request, minus the keys that may vary."""
    outcome = solve(
        case_study(app, resource_limit_percent=limit),
        method=method,
        exact_settings=ExactSettings(max_nodes=max_nodes),
    )
    payload = outcome.to_dict()
    payload.pop("runtime_seconds")
    if method == "minlp":
        payload.pop("counters")
    return json.dumps(payload, sort_keys=True)


def cold_document(*request) -> str:
    cold_solver_caches()
    return document(*request)


def test_minlp_g_answer_ignores_an_earlier_search_of_the_same_problem():
    """A 20-node search after a 3-node one over the same problem (the two
    requests differ only in ``max_nodes``) answers as it does cold."""
    cold_solver_caches()
    document("minlp+g", "alex-16", 70.0, 3)
    warm = document("minlp+g", "alex-16", 70.0, 20)
    assert warm == cold_document("minlp+g", "alex-16", 70.0, 20)


REQUESTS = st.tuples(
    st.sampled_from(("gp+a", "minlp", "minlp+g")),
    st.sampled_from(("alex-16", "alex-32")),
    st.sampled_from(tuple(float(limit) for limit in range(50, 96, 5))),
    st.sampled_from((3, 20)),
)


@settings(max_examples=30, deadline=None)
@given(requests=st.lists(REQUESTS, min_size=2, max_size=6))
def test_a_sequence_of_solves_matches_cold_solves(requests):
    warm = [document(*request) for request in requests]
    assert warm == [cold_document(*request) for request in requests]
