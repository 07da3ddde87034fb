"""Tests for canonical request fingerprints (repro.service.canonical)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.exact import ExactSettings
from repro.core.heuristic import HeuristicSettings
from repro.core.objective import ObjectiveWeights
from repro.core.problem import AllocationProblem
from repro.platform.multi_fpga import MultiFPGAPlatform
from repro.platform.presets import aws_f1, mixed_fleet
from repro.reporting.experiments import case_study
from repro.service.batch import SolveRequest
from repro.service.canonical import (
    canonical_json,
    canonical_request,
    canonical_value,
    fingerprint,
    fleet_fingerprint,
)
from repro.workloads.alexnet import alexnet_fx16
from repro.workloads.pipeline import Pipeline
from repro.workloads.tenants import synthetic_fleet


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


class TestRetiredConstants:
    def test_gp_a_documents_keep_the_retired_settings_constants(self, tiny_pipeline):
        """``gp_backend`` and ``use_bb_discretization`` left the settings;
        gp+a documents keep their one legal value so fingerprints hold."""
        problem = problem_with(tiny_pipeline)
        settings = canonical_request(problem)["heuristic_settings"]
        assert settings["gp_backend"] == "bisection"
        assert settings["use_bb_discretization"] is True
        assert set(settings) == {
            "gp_backend", "use_bb_discretization", "t_percent", "delta_percent", "criticality"
        }
        exact = canonical_request(problem, "minlp+g")["exact_settings"]
        assert "gp_backend" not in exact and "use_bb_discretization" not in exact

    def test_exact_documents_keep_the_retired_placement(self, tiny_pipeline):
        """``packing_placement`` left the exact settings; minlp and minlp+g
        documents keep its one legal value so fingerprints hold."""
        problem = problem_with(tiny_pipeline)
        for method in ("minlp", "minlp+g"):
            exact = canonical_request(problem, method)["exact_settings"]
            assert exact["packing_placement"] == "balance"
        assert "packing_placement" not in canonical_request(problem)["heuristic_settings"]


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


# --------------------------------------------------------------------------- #
# Golden fingerprints: store and WAL keys, recorded before the canonical
# request build was rewritten.  A change here orphans every stored result.
# --------------------------------------------------------------------------- #
GOLDEN_EXACT_SETTINGS = ExactSettings(max_nodes=3, time_limit_seconds=120.0)


def golden_hetero(reverse: bool = False, beta: float = 0.0) -> AllocationProblem:
    platform = mixed_fleet(2, 2, 70.0)
    if reverse:
        platform = MultiFPGAPlatform.from_classes(tuple(reversed(platform.classes)), name="other")
    return AllocationProblem(
        pipeline=alexnet_fx16(), platform=platform, weights=ObjectiveWeights(alpha=1.0, beta=beta)
    )


GOLDEN_PROBLEMS = {
    "alex-16@70": lambda: case_study("alex-16", 70.0),  # Table 4 weights: beta != 0
    "alex-16@70-int": lambda: case_study("alex-16", 70),
    "vgg-16@61.5": lambda: case_study("vgg-16", 61.5),
    "hetero": golden_hetero,
    "hetero-permuted": lambda: golden_hetero(reverse=True),
    "hetero-beta": lambda: golden_hetero(beta=0.5),
}

#: (problem, method) -> fingerprint.
GOLDEN = {
    ("alex-16@70", "gp+a"): "8ab50d958d2864f336f89088d87effe2be3cd7c67c2dd916956c9f25dfd62069",
    ("alex-16@70", "minlp"): "dc8bd63298768a458e4fd83236a2c54f8b421b9177be8737e02cf58f15b881ab",
    ("alex-16@70", "minlp+g"): "45632137d4acd0de03cf71d825ffbf57320d69ad20c063b886a6c02ecd8a39d2",
    ("alex-16@70-int", "gp+a"): "8ab50d958d2864f336f89088d87effe2be3cd7c67c2dd916956c9f25dfd62069",
    ("alex-16@70-int", "minlp"): "dc8bd63298768a458e4fd83236a2c54f8b421b9177be8737e02cf58f15b881ab",
    ("alex-16@70-int", "minlp+g"): "45632137d4acd0de03cf71d825ffbf57320d69ad20c063b886a6c02ecd8a39d2",
    ("vgg-16@61.5", "gp+a"): "382c2435eef82f84731badec16c4fec6ec7021ef9af59f9498f914bfdaa94b21",
    ("vgg-16@61.5", "minlp"): "cc739dc3c46798e98098e3d997fc2a5758abec882c1952e60e4a57a42e126daf",
    ("vgg-16@61.5", "minlp+g"): "0d002a3064bf5c772d224e30ec07e145a8329db65347f8d69267fedab39aa70c",
    ("hetero", "gp+a"): "ee71f66cbb8f50a6549f5d09db1b54a2ca016cc930908f968d274203504de2ad",
    ("hetero", "minlp"): "b013597d44af1ebbb6e0b12ed6150754be1f1e87d37b990185e0b21509334921",
    ("hetero", "minlp+g"): "427398be0ca9043056e0aadc5a977089abde7cb95fcbbbae101cfe5d485b5147",
    ("hetero-permuted", "gp+a"): "ee71f66cbb8f50a6549f5d09db1b54a2ca016cc930908f968d274203504de2ad",
    ("hetero-permuted", "minlp"): "b013597d44af1ebbb6e0b12ed6150754be1f1e87d37b990185e0b21509334921",
    ("hetero-permuted", "minlp+g"): "427398be0ca9043056e0aadc5a977089abde7cb95fcbbbae101cfe5d485b5147",
    ("hetero-beta", "gp+a"): "7b9faee7d29da2a21260edf5541e4d9c59a2b7a2bacf4ff7e3a96d7619f226ad",
    ("hetero-beta", "minlp"): "b013597d44af1ebbb6e0b12ed6150754be1f1e87d37b990185e0b21509334921",
    ("hetero-beta", "minlp+g"): "fa4fc14bb8a7a18e84c53a723a0acb9ee7f59b8bd33ebef31167ed042c154c98",
}


def golden_settings(method: str) -> ExactSettings | None:
    return None if method == "gp+a" else GOLDEN_EXACT_SETTINGS


class TestGoldenFingerprints:
    @pytest.mark.parametrize("case, method", sorted(GOLDEN))
    def test_fingerprint_is_unchanged(self, case, method):
        problem = GOLDEN_PROBLEMS[case]()
        settings = golden_settings(method)
        assert fingerprint(problem, method, exact_settings=settings) == GOLDEN[case, method]

    def test_allocator_settings_fingerprint_is_unchanged(self):
        problem = case_study("alex-16", 70.0)
        settings = HeuristicSettings(t_percent=5.0, criticality="resource")
        assert fingerprint(problem, heuristic_settings=settings) == (
            "e816840464843b6937f506299d1e17f9cadf16e14279ae629320ba6d5290b320"
        )

    @pytest.mark.parametrize("case, method", sorted(GOLDEN))
    def test_fingerprint_hashes_the_generic_canonical_json(self, case, method):
        problem = GOLDEN_PROBLEMS[case]()
        settings = golden_settings(method)
        document = canonical_request(problem, method, exact_settings=settings)
        text = canonical_json(document)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == fingerprint(
            problem, method, exact_settings=settings
        )

    def test_solve_request_fingerprint_is_unchanged(self):
        request = SolveRequest(problem=case_study("vgg-16", 61.5), method="gp+a")
        assert request.fingerprint() == GOLDEN["vgg-16@61.5", "gp+a"]


#: Seed of ``synthetic_fleet(3 tenants, classes (3, 3))`` -> (heuristic,
#: exact) fleet fingerprints.
GOLDEN_FLEETS = {
    1: (
        "aa8a330da9e69a91e427ffcfa59cfd4b4ead33c06971b668a3a246f61ecf7b3c",
        "cb4735c8f0f49b0f9213733636b035ef5e32ba7db57d2ab02daf6de65fd020af",
    ),
    2: (
        "ec6f8d8b1363b351f96b70636ea09092b5737c324d10640fdca1c0d7381b5e2f",
        "192758b1e0a258f96cdc2496b7cbb5b04c14e2fd5e36ee627ff4e33408c3f389",
    ),
    3: (
        "2b3e8fb4a3daebe6330c0373065c75d55446e30fedf6459f8f4cedb82dcf62c1",
        "9ca2a49edb94e08bc511763da275dc936ce1ebaa9d179a749f416eee099c6d41",
    ),
}


@pytest.mark.parametrize("seed", sorted(GOLDEN_FLEETS))
def test_fleet_fingerprints_are_unchanged(seed):
    fleet = synthetic_fleet(num_tenants=3, class_counts=(3, 3), seed=seed)
    assert (fleet_fingerprint(fleet, "heuristic"), fleet_fingerprint(fleet, "exact")) == (
        GOLDEN_FLEETS[seed]
    )
