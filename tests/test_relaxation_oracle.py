"""The node relaxation's certified II search against a brute-force oracle.

``tests/relaxation_oracle.py`` minimises each node relaxation over a dense
II grid refined at the kinks of the relaxed spreading, through
``scipy.optimize.linprog`` and without LP duals.  The relaxation's bound,
solved on its persistent HiGHS models, must never exceed that minimum by
more than LP noise (it is a lower bound) and must stay within ``1e-6``
relative of it (it is certified).
"""

from __future__ import annotations

import functools

from hypothesis import given, settings, strategies as st

from relaxation_oracle import assert_matches_oracle
from repro.core.exact import weighted_root_bounds
from repro.core.relaxations import AllocationRelaxation
from repro.minlp.bounds import VariableBounds
from repro.reporting.experiments import case_study

APPS = ("alex-16", "alex-32", "vgg-16")
LIMITS = (55.0, 70.0, 85.0)
#: Lower bounds rarely move: raised ones quickly overflow the capacity.
LOWER_SHIFTS = (0,) * 12 + (1,)


@functools.cache
def root(app: str, limit: float):
    problem = case_study(app, limit)
    return problem, weighted_root_bounds(problem)


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_node_bound_is_certified(data):
    problem, root_box = root(data.draw(st.sampled_from(APPS)), data.draw(st.sampled_from(LIMITS)))
    ranges = {}
    for name, low, high in zip(root_box.names, root_box.lower.tolist(), root_box.upper.tolist()):
        low = min(low + data.draw(st.sampled_from(LOWER_SHIFTS)), high)
        ranges[name] = (low, max(high - data.draw(st.integers(0, 4)), low))
    box = VariableBounds.from_ranges(ranges)
    relaxation = AllocationRelaxation(problem=problem, weights=problem.weights)
    result = relaxation.solve(box)
    assert_matches_oracle(problem, box, result)
    if not result.feasible:
        return
    # A branching child, solved with its parent as the engine does: the
    # parent may hand down its feasibility point instead of an LP.
    name = data.draw(st.sampled_from(sorted(ranges)))
    low, high = ranges[name]
    split = data.draw(st.integers(low, high))
    index = box.names.index(name)
    child = box.with_upper(index, split) if data.draw(st.booleans()) else box.with_lower(index, split)
    assert_matches_oracle(problem, child, relaxation.solve(child, result))


def test_bound_at_a_kink_the_grids_straddle():
    """alex-16 at 55 % with two caps lowered: the goal's minimum sits on a
    kink of phi near the top of the bracket (s ~ 0.71013), between the
    refined grid's points and off its kink lines.  The relaxation probes it
    (goal 1.926860); the oracle must find it too, not stop at 1.927114."""
    problem, root_box = root("alex-16", 55.0)
    ranges = {
        name: (low, max(high - {0: 2, 1: 1}.get(index, 0), low))
        for index, (name, low, high) in enumerate(
            zip(root_box.names, root_box.lower.tolist(), root_box.upper.tolist())
        )
    }
    box = VariableBounds.from_ranges(ranges)
    relaxation = AllocationRelaxation(problem=problem, weights=problem.weights)
    assert_matches_oracle(problem, box, relaxation.solve(box))
