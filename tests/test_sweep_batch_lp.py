"""Batched sweep LP solves: SweepRelaxationBatch parity and sweep wiring.

The resource-constraint sweep points of one problem share a relaxation model
skeleton -- they differ only in the capacity right-hand sides -- so
:class:`repro.core.relaxations.SweepRelaxationBatch` patches one model in
place and solves every point on a single persistent LP.  These tests pin the
contract: batched root solves match the objectives of fresh per-point solves,
incompatible problems are rejected, and the sweep surfaces the
``lp_batched_solves`` counter on its outcomes.
"""

from __future__ import annotations

import pytest

from repro.core.exact import ExactSettings, seed_sweep_relaxations, weighted_root_bounds
from repro.core.objective import ObjectiveWeights
from repro.core.relaxations import AllocationRelaxation, SweepRelaxationBatch
from repro.explore.sweep import resource_constraint_sweep
from repro.minlp.branch_and_bound import shared_relaxation_caches_clear
from repro.reporting.experiments import case_study

CONSTRAINTS = (50.0, 60.0, 70.0, 80.0)


@pytest.fixture()
def alex16():
    return case_study("alex-16")


def _points(problem):
    return [problem.with_resource_constraint(c) for c in CONSTRAINTS]


def test_batched_root_solves_match_fresh_solves(alex16):
    """A patched-in-place batch solve bounds each point like a model built
    from scratch.  The batch's persistent models restart from the previous
    point's basis, so on degenerate LPs they may return another optimal
    vertex: objectives must agree, vertices need not."""
    batch = SweepRelaxationBatch(_points(alex16)[0], symmetry_breaking=True)
    for point in _points(alex16):
        assert batch.compatible(point)
        bounds = weighted_root_bounds(point)
        batched, used = batch.solve_point(point, bounds)
        fresh = AllocationRelaxation(
            problem=point, weights=point.weights, symmetry_breaking=True
        ).solve(bounds)
        assert batched.feasible == fresh.feasible
        assert batched.objective == pytest.approx(fresh.objective, abs=1e-12)
        assert batched.values.shape == fresh.values.shape
        assert used >= 1


def test_batch_rejects_incompatible_problems(alex16):
    batch = SweepRelaxationBatch(alex16, symmetry_breaking=True)
    assert batch.compatible(alex16.with_resource_constraint(55.0))
    different_weights = alex16.with_weights(ObjectiveWeights(alpha=1.0, beta=0.25))
    assert not batch.compatible(different_weights)
    other_pipeline = case_study("alex-32")
    assert not batch.compatible(other_pipeline)


def test_seed_skips_spreading_disabled_points(alex16):
    ii_only = alex16.with_weights(ObjectiveWeights(alpha=1.0, beta=0.0))
    counts = seed_sweep_relaxations([ii_only], ExactSettings())
    assert counts == [None]


def test_seed_counts_lps_and_primes_shared_cache(alex16):
    shared_relaxation_caches_clear()
    points = _points(alex16)
    first = seed_sweep_relaxations(points, ExactSettings())
    assert all(count is not None and count >= 1 for count in first)
    # A second seeding pass finds every root already cached.
    second = seed_sweep_relaxations(points, ExactSettings())
    assert second == [0] * len(points)


def test_sweep_surfaces_lp_batched_solves_counter(alex16):
    shared_relaxation_caches_clear()
    settings = ExactSettings(max_nodes=3, time_limit_seconds=60.0)
    sweep_points = resource_constraint_sweep(
        alex16,
        constraints=CONSTRAINTS[:2],
        methods=("gp+a", "minlp+g"),
        exact_settings=settings,
    )
    by_method = {}
    for point in sweep_points:
        by_method.setdefault(point.method, []).append(point)
    for point in by_method["minlp+g"]:
        assert point.outcome.counters.get("lp_batched_solves", 0) >= 1
    for point in by_method["gp+a"]:
        assert "lp_batched_solves" not in point.outcome.counters
