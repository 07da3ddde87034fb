"""Property suite for the consistent hash ring (:mod:`repro.service.hashing`).

The ring decides which shard-group worker owns every request fingerprint,
so two properties carry the whole multi-process serving design:

* **uniformity** -- no group's expected key share may stray far from fair,
  or one worker process caps the pool's throughput.  The ring exposes its
  *exact* expected load split (:meth:`HashRing.arc_shares`), so uniformity
  is bounded analytically rather than sampled;
* **minimal movement** -- growing ``N -> N+1`` groups must remap only about
  ``1/(N+1)`` of the keys, every one of them *to the new group*.  A key
  moving between two surviving groups would cost a surviving worker its
  warm cache for nothing, so that count must be exactly zero.
"""

from __future__ import annotations

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.hashing import (
    DEFAULT_REPLICAS,
    HashRing,
    fingerprint_point,
    ring,
    ring_of,
)

# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #


def _fingerprints(seed: int, count: int) -> list[str]:
    """Deterministic, SHA-256-shaped fingerprints (what canonical.py emits)."""
    return [
        hashlib.sha256(f"{seed}/{index}".encode()).hexdigest() for index in range(count)
    ]


_GROUPS = st.integers(min_value=1, max_value=12)
_SEED = st.integers(min_value=0, max_value=2**32 - 1)


# --------------------------------------------------------------------------- #
# Construction and routing basics
# --------------------------------------------------------------------------- #


def test_ring_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        HashRing(0)
    with pytest.raises(ValueError):
        HashRing(2, replicas=0)


def test_ring_memoized_and_pure():
    assert ring(4) is ring(4)
    assert ring(4, replicas=64) is not ring(4)
    fingerprint = _fingerprints(1, 1)[0]
    assert ring_of(fingerprint, 4) == ring(4).group_of(fingerprint)
    # Pure: repeated evaluation and a fresh (unmemoized) ring agree.
    assert HashRing(4).group_of(fingerprint) == ring_of(fingerprint, 4)


def test_single_group_owns_everything():
    only = ring(1)
    assert all(only.group_of(f) == 0 for f in _fingerprints(2, 50))


def test_group_of_point_wraps_past_top_of_ring():
    r = ring(3)
    # A point above every vnode wraps to the owner of the smallest vnode.
    assert r.group_of_point((1 << 64) - 1) == r._owners[0]


def test_partition_preserves_input_order_and_covers_all_indices():
    fingerprints = _fingerprints(3, 200)
    owned = ring(4).partition(fingerprints)
    seen = sorted(index for indices in owned.values() for index in indices)
    assert seen == list(range(len(fingerprints)))
    for group, indices in owned.items():
        assert indices == sorted(indices)  # input order within each group
        assert all(ring_of(fingerprints[i], 4) == group for i in indices)


# --------------------------------------------------------------------------- #
# Uniformity: the *exact* expected load split stays near fair share
# --------------------------------------------------------------------------- #


@settings(max_examples=16, deadline=None)
@given(num_groups=st.integers(min_value=1, max_value=16))
def test_arc_shares_are_near_fair(num_groups: int):
    shares = ring(num_groups).arc_shares()
    assert len(shares) == num_groups
    assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)
    fair = 1.0 / num_groups
    # 128 vnodes/group keep every group within 25% of fair share for all
    # supported pool sizes (observed worst case at 16 groups: 1.18 / 0.80).
    assert max(shares) <= 1.25 * fair
    assert min(shares) >= 0.75 * fair


@given(seed=_SEED)
@settings(max_examples=10, deadline=None)
def test_sampled_load_matches_arc_shares(seed: int):
    """Sampled key counts track the analytic shares (law of large numbers)."""
    num_groups = 4
    fingerprints = _fingerprints(seed, 2000)
    counts = [0] * num_groups
    r = ring(num_groups)
    for fingerprint in fingerprints:
        counts[r.group_of(fingerprint)] += 1
    for group, share in enumerate(r.arc_shares()):
        expected = share * len(fingerprints)
        tolerance = 4.0 * math.sqrt(len(fingerprints) * share * (1.0 - share)) + 1.0
        assert abs(counts[group] - expected) <= tolerance


# --------------------------------------------------------------------------- #
# Minimal movement on resize
# --------------------------------------------------------------------------- #


@given(num_groups=_GROUPS, seed=_SEED)
@settings(max_examples=20, deadline=None)
def test_resize_moves_keys_only_to_the_new_group(num_groups: int, seed: int):
    """Structural property: growing never moves a key between survivors."""
    old = ring(num_groups)
    new = old.with_num_groups(num_groups + 1)
    fingerprints = _fingerprints(seed, 300)
    for fingerprint in old.moved_keys(new, fingerprints):
        assert new.group_of(fingerprint) == num_groups  # the added group
    for fingerprint in fingerprints:
        if new.group_of(fingerprint) != num_groups:
            assert new.group_of(fingerprint) == old.group_of(fingerprint)


@given(num_groups=_GROUPS, seed=_SEED)
@settings(max_examples=15, deadline=None)
def test_resize_moves_about_a_fair_share(num_groups: int, seed: int):
    """``N -> N+1`` remaps ~``1/(N+1)`` of the keys, not more."""
    old = ring(num_groups)
    new = old.with_num_groups(num_groups + 1)
    fingerprints = _fingerprints(seed, 1500)
    moved = old.moved_keys(new, fingerprints)
    expected = len(fingerprints) / (num_groups + 1)
    # The new group's exact share of the ring bounds the expectation; allow
    # vnode imbalance (<=1.25x fair) plus 4 sigma of binomial noise.
    share = new.arc_shares()[num_groups]
    sigma = math.sqrt(len(fingerprints) * share * (1.0 - share))
    assert len(moved) <= 1.25 * expected + 4.0 * sigma
    assert len(moved) >= 0.5 * expected - 4.0 * sigma


def test_resize_is_incremental_across_sizes():
    """Growing 2 -> 3 -> 4 moves the same keys as growing 2 -> 4 directly
    (resize composes: each step only bleeds keys to its own new group)."""
    fingerprints = _fingerprints(11, 800)
    step_owned = {
        f: ring(4).group_of(f) for f in fingerprints
    }
    for fingerprint in fingerprints:
        owner2 = ring(2).group_of(fingerprint)
        owner3 = ring(3).group_of(fingerprint)
        owner4 = step_owned[fingerprint]
        if owner4 == owner2:
            continue  # never moved, or moved and returned -- forbidden below
        # A key not owned by a new group at some step must keep its owner.
        if owner3 != owner2:
            assert owner3 == 2
        if owner4 != owner3:
            assert owner4 == 3


# --------------------------------------------------------------------------- #
# Decorrelation from the fingerprint's own bits
# --------------------------------------------------------------------------- #


def test_ring_position_not_correlated_with_fingerprint_prefix():
    """Keys sharing their leading nibbles must still spread across groups
    -- the ring re-hashes with a distinct prefix."""
    fingerprints = [
        "00" + hashlib.sha256(str(i).encode()).hexdigest()[2:] for i in range(256)
    ]
    owners = {ring(4).group_of(f) for f in fingerprints}
    assert owners == {0, 1, 2, 3}
    # And the raw point really differs from the fingerprint's own value.
    sample = fingerprints[0]
    assert fingerprint_point(sample) != int(sample[:16], 16)
