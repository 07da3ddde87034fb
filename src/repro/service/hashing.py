"""Consistent hashing of request fingerprints onto shard-group workers.

The multi-process serving layer (:mod:`repro.service.pool` /
:mod:`repro.service.router`) partitions the keyspace by *ownership*: every
request fingerprint belongs to exactly one shard group, and that group's
worker process holds the key's cache entry, its WAL records and its job
state.  The placement function therefore decides two production properties:

* **balance** -- groups must receive near-equal key shares, or one worker
  becomes the throughput ceiling of the whole pool (the multi-FPGA
  load-balancing observation of Kindratenko et al.: delivered throughput is
  governed by the worst-loaded worker, not the sum);
* **stability under resize** -- growing ``N -> N+1`` groups must remap only
  ``~1/(N+1)`` of the keys, all of them *to the new group*, so an online
  resize never moves a key between two surviving groups and never costs a
  surviving worker its warm store.

A classic consistent hash ring delivers both: each group projects
``replicas`` virtual points onto a 64-bit ring (SHA-256 of
``"group-<g>/vnode-<r>"``), and a fingerprint is owned by the first point
at or clockwise-after its own hash.  Because a group's points depend only
on its own index, adding group ``N`` adds points without moving any
existing one -- keys change owner only where a new point lands between a
key and its old successor, i.e. only onto the new group.

:func:`ring_of` is the pure routing function: ``(fingerprint, num_groups)
-> group`` with no hidden state, so every router, worker, test and offline
tool computes identical ownership.  Ring structures are memoized per
``(num_groups, replicas)`` -- building one is ``O(groups * replicas)`` and
routing is one binary search.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Dict, Iterable, List, Tuple

#: Virtual points each group projects onto the ring.  128 keeps the maximal
#: arc-share imbalance of any group within ~25% of fair share for realistic
#: group counts (asserted by the Hypothesis suite) while a ring for 16
#: groups still builds in well under a millisecond.
DEFAULT_REPLICAS = 128

#: Ring positions are 64-bit: the top 8 bytes of a SHA-256 digest.
_RING_BITS = 64
_RING_MASK = (1 << _RING_BITS) - 1


def _hash64(token: str) -> int:
    """Stable 64-bit ring position of a token (top bytes of SHA-256)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fingerprint_point(fingerprint: str) -> int:
    """Ring position of a request fingerprint.

    Fingerprints are already SHA-256 hex (uniform by construction); they
    are re-hashed with a distinct prefix so ring geometry stays independent
    of any other use of the digest's leading bits.
    """
    return _hash64("key/" + fingerprint)


class HashRing:
    """A consistent hash ring over ``num_groups`` shard groups.

    The ring is immutable; "resizing" builds a new ring via
    :meth:`with_num_groups` (cheap, memoized) so concurrent readers never
    observe a half-updated structure -- the router swaps whole rings
    atomically.
    """

    def __init__(self, num_groups: int, replicas: int = DEFAULT_REPLICAS):
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.num_groups = num_groups
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for group in range(num_groups):
            for replica in range(replicas):
                points.append((_hash64(f"group-{group}/vnode-{replica}"), group))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [group for _, group in points]

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def group_of(self, fingerprint: str) -> int:
        """The shard group owning ``fingerprint`` (pure, stateless)."""
        return self.group_of_point(fingerprint_point(fingerprint))

    def group_of_point(self, point: int) -> int:
        """Owner of a raw ring position: first vnode at or after it."""
        index = bisect.bisect_left(self._points, point & _RING_MASK)
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[index]

    def partition(self, fingerprints: Iterable[str]) -> Dict[int, List[int]]:
        """Positions of ``fingerprints`` grouped by owner.

        Returns ``{group: [indices]}`` with each index list in input order
        -- the router's batch splitter, which must reassemble per-worker
        responses into request order.
        """
        owned: Dict[int, List[int]] = {}
        for index, fingerprint in enumerate(fingerprints):
            owned.setdefault(self.group_of(fingerprint), []).append(index)
        return owned

    # ------------------------------------------------------------------ #
    # Resize
    # ------------------------------------------------------------------ #
    def with_num_groups(self, num_groups: int) -> "HashRing":
        """The ring for a different group count (same replica factor)."""
        return ring(num_groups, self.replicas)

    def moved_keys(self, new_ring: "HashRing", fingerprints: Iterable[str]) -> List[str]:
        """The subset of ``fingerprints`` whose owner differs under
        ``new_ring`` -- exactly the keys an online resize turns cold."""
        return [
            fingerprint
            for fingerprint in fingerprints
            if self.group_of(fingerprint) != new_ring.group_of(fingerprint)
        ]

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def arc_shares(self) -> List[float]:
        """Fraction of the ring owned by each group (sums to 1.0).

        A uniformly hashed key lands in group ``g`` with probability
        ``arc_shares()[g]``, so this is the *exact* expected load split --
        the uniformity suite bounds it directly instead of sampling.
        """
        shares = [0.0] * self.num_groups
        points = self._points
        for index, point in enumerate(points):
            previous = points[index - 1] if index > 0 else points[-1] - (1 << _RING_BITS)
            shares[self._owners[index]] += (point - previous) / float(1 << _RING_BITS)
        return shares

    def describe(self) -> Dict[str, object]:
        shares = self.arc_shares()
        fair = 1.0 / self.num_groups
        return {
            "num_groups": self.num_groups,
            "replicas": self.replicas,
            "points": len(self._points),
            "max_share_over_fair": max(shares) / fair,
            "min_share_over_fair": min(shares) / fair,
        }


#: Memoized rings keyed by (num_groups, replicas); rings are immutable.
_ring_cache: Dict[Tuple[int, int], HashRing] = {}
_ring_cache_lock = threading.Lock()


def ring(num_groups: int, replicas: int = DEFAULT_REPLICAS) -> HashRing:
    """The (memoized) ring for ``num_groups`` shard groups."""
    key = (num_groups, replicas)
    cached = _ring_cache.get(key)
    if cached is None:
        with _ring_cache_lock:
            cached = _ring_cache.get(key)
            if cached is None:
                cached = HashRing(num_groups, replicas=replicas)
                _ring_cache[key] = cached
    return cached


def ring_of(fingerprint: str, num_groups: int, replicas: int = DEFAULT_REPLICAS) -> int:
    """Pure routing function: the shard group owning ``fingerprint``.

    ``ring_of(f, n)`` is a total function of its arguments -- no process
    state, no key-set dependence -- so every component of the serving
    topology (router, workers, tests, offline layout tools) agrees on
    ownership by construction.
    """
    return ring(num_groups, replicas).group_of(fingerprint)
