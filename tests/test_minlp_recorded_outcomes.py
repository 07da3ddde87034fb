"""``minlp`` outcome documents equal the ones recorded before the packer
moved onto Python lists.

``tests/fixtures/minlp_outcomes/outcomes.json`` holds one cold ``minlp``
outcome document per problem, work counters included and wall clock left
out, written by the explicit-stack packer (see ``make_minlp_outcomes.py``
there).  The list packer visits the same nodes in the same order, so every
document must be byte-identical.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

FIXTURE = Path(__file__).parent / "fixtures" / "minlp_outcomes"
RECORDED = json.loads((FIXTURE / "outcomes.json").read_text())

_spec = importlib.util.spec_from_file_location(
    "make_minlp_outcomes", FIXTURE / "make_minlp_outcomes.py"
)
recorder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(recorder)
PROBLEMS = recorder.problems()


def test_every_recorded_problem_is_solved():
    assert sorted(name for name, _ in PROBLEMS) == sorted(RECORDED)


@pytest.mark.parametrize(("name", "problem"), PROBLEMS, ids=[name for name, _ in PROBLEMS])
def test_outcome_is_byte_identical(name, problem):
    document = recorder.outcome_document(problem)
    assert json.dumps(document, sort_keys=True) == json.dumps(RECORDED[name], sort_keys=True)
