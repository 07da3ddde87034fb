"""Canonical problem fingerprints for the allocation service.

The cache key of the result store must identify a *semantically* identical
request, not a byte-identical one: two callers describing the same pipeline
with the kernels listed in a different order, the resource cap written as
``70`` instead of ``70.0``, or the solver settings spelled in a different
key order must hash to the same fingerprint.  This module builds that stable
content hash on top of the workload serialization layer:

* every number is coerced to a float and rendered by ``repr`` (shortest
  round-trip form), so formatting differences vanish;
* kernels are sorted by name -- allocation is order-free, the optimisation
  variables are indexed by kernel name only;
* display-only attributes (pipeline/platform/device names, absolute device
  counts) are excluded -- the solvers operate purely on percentages;
* heterogeneous platforms canonicalise to their *sorted class multiset*:
  device classes are merged by their capacity key (resource caps +
  bandwidth cap) and listed in descending capacity order, so two platforms
  describing the same fleet with the classes in a different order (or split
  differently into equal-capacity classes) fingerprint identically.  A fleet
  whose classes all share one capacity key canonicalises to the homogeneous
  form.  Because the fingerprint is class-order-free while solutions index
  FPGAs positionally, cached payloads are stored in *canonical FPGA order*
  and permuted back into the requesting platform's order on a cache hit
  (:func:`outcome_payload_to_canonical` / :func:`outcome_payload_from_canonical`);
* solver settings irrelevant to the chosen method are dropped
  (``"minlp"`` ignores the heuristic settings and forces ``beta = 0``);
* the canonical document is serialised with sorted keys and hashed with
  SHA-256.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields
from typing import Any, Mapping

from ..core.exact import ExactSettings
from ..core.heuristic import HeuristicSettings
from ..core.problem import AllocationProblem
from ..core.solvers import METHODS
from ..platform.multi_fpga import MultiFPGAPlatform
from ..platform.resources import RESOURCE_KINDS

#: Version tag mixed into every fingerprint; bump when the canonical form or
#: the solver semantics behind it change incompatibly (old cache entries must
#: not be served for requests they no longer describe).
CANONICAL_VERSION = 1


def canonical_value(value: Any) -> Any:
    """Normalise a JSON-ish value for canonical serialisation.

    Every number except ``bool`` becomes a float (``70`` and ``70.0``
    canonicalise identically; ``repr`` of equal floats is equal), ``-0.0`` is
    folded onto ``0.0``, and containers are normalised recursively.  Mapping
    key order is irrelevant because :func:`canonical_json` sorts keys.
    """
    if isinstance(value, Mapping):
        return {str(key): canonical_value(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical_value(item) for item in value]
    return _canonical_scalar(value)


def _canonical_scalar(value: Any) -> Any:
    """:func:`canonical_value` of one scalar (a string, bool, number or None)."""
    if type(value) is float:  # the common case; folds -0.0 onto 0.0
        return value if value else 0.0
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        number = float(value)
        return 0.0 if number == 0.0 else number
    raise TypeError(f"cannot canonicalise value of type {type(value).__name__}")


def _dumps(document: Any) -> str:
    """JSON text of an already canonical document (sorted keys, compact)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text of a canonicalised payload."""
    return _dumps(canonical_value(payload))


# --------------------------------------------------------------------------- #
# Platform canonicalisation (device classes and FPGA order)
# --------------------------------------------------------------------------- #
def _class_capacity_key(resource_limit, bandwidth_limit: float) -> tuple:
    """The capacity identity of one device class: percentage caps only.

    Devices are descriptive; two classes with the same caps are
    interchangeable for the solvers, so they share one canonical key.
    """
    return tuple(resource_limit[kind] for kind in RESOURCE_KINDS) + (float(bandwidth_limit),)


def _canonical_platform_document(platform: MultiFPGAPlatform) -> dict[str, Any]:
    """Order-free platform document: homogeneous form, or sorted class multiset.

    Canonical as built, like :func:`canonical_problem`.
    """
    scalar = _canonical_scalar
    groups: dict[tuple, int] = {}
    for device_class in platform.device_classes:
        key = _class_capacity_key(device_class.resource_limit, device_class.bandwidth_limit)
        groups[key] = groups.get(key, 0) + device_class.count
    if len(groups) == 1:
        # One capacity class (the homogeneous case, however it was spelled):
        # the original flat document, byte-identical for legacy platforms.
        reference = platform.device_classes[0]
        return {
            "num_fpgas": scalar(platform.num_fpgas),
            "resource_limit": {
                kind: scalar(reference.resource_limit[kind]) for kind in RESOURCE_KINDS
            },
            "bandwidth_limit": scalar(reference.bandwidth_limit),
        }
    classes = []
    for key in sorted(groups, reverse=True):
        resources = {kind: scalar(value) for kind, value in zip(RESOURCE_KINDS, key)}
        classes.append(
            {
                "count": scalar(groups[key]),
                "resource_limit": resources,
                "bandwidth_limit": scalar(key[-1]),
            }
        )
    return {"num_fpgas": scalar(platform.num_fpgas), "classes": classes}


def canonical_fpga_order(platform: MultiFPGAPlatform) -> "tuple[int, ...] | None":
    """Original FPGA indices in canonical order, or ``None`` when identity.

    Canonical order sorts FPGAs by descending class capacity key (stable, so
    FPGAs with equal caps keep their relative order), matching the class
    order of the canonical platform document.  Two platforms with the same
    class multiset therefore agree position-by-position on the caps of the
    canonically ordered FPGAs, which is what lets cached solutions transfer
    between them.
    """
    if platform.is_homogeneous:
        return None
    keys = [
        _class_capacity_key(
            platform.fpga_resource_limit(fpga), platform.fpga_bandwidth_limit(fpga)
        )
        for fpga in range(platform.num_fpgas)
    ]
    if len(set(keys)) == 1:
        return None  # one capacity class: every order is canonical
    order = tuple(
        sorted(range(platform.num_fpgas), key=lambda fpga: (tuple(-v for v in keys[fpga]), fpga))
    )
    if order == tuple(range(platform.num_fpgas)):
        return None  # already canonical (all shipped presets): zero-copy path
    return order


def outcome_payload_to_canonical(
    payload: dict[str, Any], problem: AllocationProblem
) -> dict[str, Any]:
    """Permute a ``SolveOutcome.to_dict`` payload into canonical FPGA order.

    Applied before a payload enters the result store, so equivalent
    heterogeneous platforms (same class multiset, any class order) share
    cache entries.  Homogeneous payloads pass through untouched.
    """
    order = canonical_fpga_order(problem.platform)
    solution = payload.get("solution")
    if order is None or not solution:
        return payload
    solution["counts"] = {
        name: [per_fpga[original] for original in order]
        for name, per_fpga in solution["counts"].items()
    }
    return payload


def outcome_payload_from_canonical(
    payload: dict[str, Any], problem: AllocationProblem
) -> dict[str, Any]:
    """Inverse of :func:`outcome_payload_to_canonical` for cache hits."""
    order = canonical_fpga_order(problem.platform)
    solution = payload.get("solution")
    if order is None or not solution:
        return payload
    permuted: dict[str, list[int]] = {}
    for name, per_fpga in solution["counts"].items():
        restored = [0] * len(per_fpga)
        for position, original in enumerate(order):
            restored[original] = per_fpga[position]
        permuted[name] = restored
    solution["counts"] = permuted
    return payload


# --------------------------------------------------------------------------- #
# Canonical request documents
# --------------------------------------------------------------------------- #
def canonical_problem(problem: AllocationProblem) -> dict[str, Any]:
    """Order- and formatting-independent document of one allocation problem.

    The document is canonical as built (numbers are floats, ``-0.0`` is
    ``0.0``), and memoized on the (frozen) problem instance -- a batch of
    requests over a handful of distinct problems canonicalises each problem
    once.  Callers must treat the returned document as immutable.
    """
    cached = problem.__dict__.get("_cached_canonical_document")
    if cached is not None:
        return cached
    document = {
        "kernels": _canonical_kernels(problem.pipeline),
        "platform": _canonical_platform_document(problem.platform),
        "weights": _canonical_weights(problem.weights),
    }
    object.__setattr__(problem, "_cached_canonical_document", document)
    return document


def _canonical_kernels(pipeline) -> list[dict[str, Any]]:
    """Canonical kernel documents, sorted by name (allocation is order-free)."""
    scalar = _canonical_scalar
    return [
        {
            "name": scalar(kernel.name),
            "resources": {kind: scalar(kernel.resources[kind]) for kind in RESOURCE_KINDS},
            "bandwidth": scalar(kernel.bandwidth),
            "wcet_ms": scalar(kernel.wcet_ms),
            "max_cus": scalar(kernel.max_cus),
        }
        for kernel in sorted(pipeline, key=lambda k: k.name)
    ]


def _canonical_weights(weights) -> dict[str, Any]:
    """Canonical objective weights (alpha, beta)."""
    return {"alpha": _canonical_scalar(weights.alpha), "beta": _canonical_scalar(weights.beta)}


#: Retired gp+a settings, each with its one legal value.  Every gp+a
#: fingerprint carries them, so the canonical document keeps emitting them:
#: fingerprints, the result store and the write-ahead log stay valid.
RETIRED_HEURISTIC_CONSTANTS: dict[str, Any] = {
    "gp_backend": "bisection",
    "use_bb_discretization": True,
}


def canonical_request(
    problem: AllocationProblem,
    method: str = "gp+a",
    heuristic_settings: HeuristicSettings | None = None,
    exact_settings: ExactSettings | None = None,
) -> dict[str, Any]:
    """Canonical document of one ``(problem, method, settings)`` request.

    Settings default to the solver defaults, so "no settings given" and
    "defaults spelled out" are the same request.  Settings (and weights) that
    the method provably ignores are normalised away:

    * ``"minlp"`` never reads the heuristic settings and zeroes ``beta``;
    * the exact methods are the only readers of :class:`ExactSettings`.

    Like the problem document, the result is canonical as built.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; options: {METHODS}")
    problem_document = canonical_problem(problem)
    if method == "minlp":
        # Copy-on-write: the problem document is memoized and must stay pristine.
        problem_document = {
            **problem_document,
            "weights": {**problem_document["weights"], "beta": 0.0},
        }
    if method == "gp+a":
        settings_key, settings = "heuristic_settings", heuristic_settings or HeuristicSettings()
        settings_document = dict(RETIRED_HEURISTIC_CONSTANTS)
    else:
        settings_key, settings = "exact_settings", exact_settings or ExactSettings()
        settings_document = {}
    # Both settings classes are flat dataclasses of scalars.
    for field in fields(settings):
        settings_document[field.name] = _canonical_scalar(getattr(settings, field.name))
    return {
        "version": _canonical_scalar(CANONICAL_VERSION),
        "method": method,
        "problem": problem_document,
        settings_key: settings_document,
    }


def fingerprint(
    problem: AllocationProblem,
    method: str = "gp+a",
    heuristic_settings: HeuristicSettings | None = None,
    exact_settings: ExactSettings | None = None,
) -> str:
    """SHA-256 content fingerprint of one allocation request."""
    document = canonical_request(problem, method, heuristic_settings, exact_settings)
    return hashlib.sha256(_dumps(document).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# Fleet fingerprints
# --------------------------------------------------------------------------- #
def canonical_fleet(fleet) -> dict[str, Any]:
    """Canonical document of one :class:`~repro.fleet.state.FleetState`.

    Unlike the per-app platform document, the class list is
    **order-preserving**: fleet allocations carry per-tenant shares that
    index device classes *positionally*, so collapsing permuted-class
    fleets onto one fingerprint would serve share vectors bound to the
    wrong classes.  Tenant order is preserved for the same reason -- the
    carve breaks ties by tenant position, so permuted-tenant fleets may
    legitimately allocate differently.  Within a tenant, kernels sort by
    name exactly as in :func:`canonical_problem`.
    """
    classes = [
        {
            "count": device_class.count,
            "resource_limit": {
                kind: device_class.resource_limit[kind] for kind in RESOURCE_KINDS
            },
            "bandwidth_limit": device_class.bandwidth_limit,
        }
        for device_class in fleet.classes
    ]
    tenants = [
        {
            "id": tenant.id,
            "weight": tenant.weight,
            "weights": _canonical_weights(tenant.weights),
            "kernels": _canonical_kernels(tenant.pipeline),
        }
        for tenant in fleet.tenants
    ]
    return {"classes": classes, "tenants": tenants}


def fleet_fingerprint(fleet, mode: str = "heuristic") -> str:
    """SHA-256 content fingerprint of one fleet allocation request.

    The fingerprint keys the same result store / WAL / router machinery as
    per-app fingerprints; ``kind: "fleet"`` keeps the two namespaces from
    ever colliding.
    """
    document = {
        "version": CANONICAL_VERSION,
        "kind": "fleet",
        "mode": mode,
        "fleet": canonical_fleet(fleet),
    }
    return hashlib.sha256(canonical_json(document).encode("utf-8")).hexdigest()
