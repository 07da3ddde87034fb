"""Tests for canonical request fingerprints (repro.service.canonical)."""

from __future__ import annotations

import json

import pytest

from repro.core.exact import ExactSettings
from repro.core.heuristic import HeuristicSettings
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.platform.presets import aws_f1
from repro.service.canonical import (
    canonical_json,
    canonical_request,
    canonical_value,
    fingerprint,
    group_key,
)
from repro.workloads.pipeline import Pipeline


def problem_with(pipeline, num_fpgas=2, resource=80.0, weights=None):
    return AllocationProblem(
        pipeline=pipeline,
        platform=aws_f1(num_fpgas=num_fpgas, resource_limit_percent=resource),
        weights=weights or ObjectiveWeights(),
    )


class TestCanonicalValue:
    def test_int_and_float_formats_collapse(self):
        assert canonical_json({"r": 70}) == canonical_json({"r": 70.0})
        assert canonical_json([1, 2.5]) == canonical_json([1.0, 2.5])

    def test_negative_zero_collapses(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_key_order_is_irrelevant(self):
        assert canonical_json({"a": 1, "b": 2}) == canonical_json({"b": 2, "a": 1})

    def test_bools_stay_bools(self):
        assert canonical_json(True) != canonical_json(1.0)

    def test_unknown_types_rejected(self):
        with pytest.raises(TypeError):
            canonical_value(object())

    def test_output_is_valid_json(self):
        text = canonical_json({"x": [1, 2.5], "y": {"z": None}})
        assert json.loads(text) == {"x": [1.0, 2.5], "y": {"z": None}}


class TestFingerprintStability:
    def test_kernel_permutation_is_invariant(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        permuted = problem_with(
            Pipeline(name=tiny_pipeline.name, kernels=list(reversed(list(tiny_pipeline))))
        )
        assert fingerprint(permuted) == fingerprint(problem)

    def test_display_names_are_invariant(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        renamed = problem_with(Pipeline(name="something-else", kernels=list(tiny_pipeline)))
        assert fingerprint(renamed) == fingerprint(problem)

    def test_default_settings_equal_explicit_defaults(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert fingerprint(problem) == fingerprint(
            problem, heuristic_settings=HeuristicSettings()
        )
        assert fingerprint(problem, method="minlp") == fingerprint(
            problem, method="minlp", exact_settings=ExactSettings()
        )

    def test_resource_constraint_changes_fingerprint(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert fingerprint(problem.with_resource_constraint(75.0)) != fingerprint(problem)

    def test_method_changes_fingerprint(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert fingerprint(problem, method="minlp") != fingerprint(problem, method="gp+a")

    def test_heuristic_settings_change_fingerprint(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert fingerprint(
            problem, heuristic_settings=HeuristicSettings(t_percent=10.0)
        ) != fingerprint(problem)

    def test_minlp_ignores_heuristic_settings_and_beta(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        weighted = problem_with(
            tiny_pipeline, weights=ObjectiveWeights(alpha=1.0, beta=3.0)
        )
        # The "minlp" method forces beta = 0 and never reads heuristic
        # settings, so those differences are not semantic.
        assert fingerprint(weighted, method="minlp") == fingerprint(problem, method="minlp")
        assert fingerprint(
            problem, method="minlp", heuristic_settings=HeuristicSettings(t_percent=30.0)
        ) == fingerprint(problem, method="minlp")
        # ... but they are for the methods that do read them.
        assert fingerprint(weighted, method="minlp+g") != fingerprint(problem, method="minlp+g")

    def test_unknown_method_rejected(self, tiny_pipeline):
        with pytest.raises(ValueError, match="unknown method"):
            fingerprint(problem_with(tiny_pipeline), method="magic")

    def test_canonical_request_round_trips_through_json(self, tiny_pipeline):
        document = canonical_request(problem_with(tiny_pipeline))
        assert json.loads(canonical_json(document)) is not None


class TestGroupKey:
    def test_allocator_parameters_share_a_group(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert group_key(
            problem, heuristic_settings=HeuristicSettings(t_percent=10.0)
        ) == group_key(problem, heuristic_settings=HeuristicSettings(t_percent=30.0))

    def test_gp_backend_splits_groups(self, tiny_pipeline):
        """The backend is part of the group key; a non-bisection one never decodes."""
        problem = problem_with(tiny_pipeline)
        key = group_key(problem, heuristic_settings=HeuristicSettings(gp_backend="bisection"))
        assert key == group_key(problem)
        assert json.loads(key)["heuristic_settings"]["gp_backend"] == "bisection"
        with pytest.raises(ValueError, match="unknown GP backend"):
            HeuristicSettings(gp_backend="slsqp")

    def test_different_constraints_split_groups(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        assert group_key(problem.with_resource_constraint(60.0)) != group_key(problem)


class TestMemoizedCanonicalDocument:
    def test_minlp_normalisation_does_not_corrupt_the_cached_document(self, tiny_pipeline):
        problem = problem_with(
            tiny_pipeline, weights=ObjectiveWeights(alpha=1.0, beta=2.0)
        )
        before = fingerprint(problem, method="minlp+g")
        # "minlp" zeroes beta copy-on-write; the memoized problem document
        # must stay pristine for later methods on the same instance.
        fingerprint(problem, method="minlp")
        assert fingerprint(problem, method="minlp+g") == before
        assert canonical_request(problem, "gp+a")["problem"]["weights"]["beta"] == 2.0

    def test_memoized_document_matches_fresh_problem(self, tiny_pipeline):
        problem = problem_with(tiny_pipeline)
        repeat = fingerprint(problem)          # second call hits the memo
        fresh = fingerprint(problem_with(tiny_pipeline))  # no memo, fresh instance
        assert fingerprint(problem) == repeat == fresh
