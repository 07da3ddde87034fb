"""Concurrency stress tests for the result store.

Eight threads hammer one :class:`ResultStore` with mixed put/get
traffic (overlapping keys, eviction pressure, disk tiers) and the suite
asserts the store's concurrency contract:

* no exceptions and no torn reads -- a get returns ``None`` or exactly some
  payload that was written for that key, never a mix;
* no lost writes -- with caps large enough that nothing is evicted, every
  acknowledged put is readable afterwards, immediately and at the end;
* eviction never drops an in-flight entry -- the entry a put just wrote
  survives the eviction pass that the put itself triggers, even when the
  entry alone exceeds the byte cap;
* counters stay exact under contention -- lookups/puts equal the issued
  operation counts, and ``hits + misses == lookups``.
"""

from __future__ import annotations

import hashlib
import threading

from repro.service.store import ResultStore, StoreLimits

THREADS = 8
KEYS_PER_THREAD = 120


def _fingerprint(tag: str) -> str:
    """SHA-256 hex keys, like the production fingerprints."""
    return hashlib.sha256(tag.encode("utf-8")).hexdigest()


def _payload(key: str, version: int = 0) -> str:
    """A self-describing payload: torn reads cannot forge the embedded hash."""
    body = "x" * (version % 41)
    return f"{key}|{version}|{body}"


def _check_payload(key: str, payload: str) -> None:
    parts = payload.split("|")
    assert parts[0] == key, f"payload for {key} carries {parts[0]}"
    assert parts[2] == "x" * (int(parts[1]) % 41), "torn payload body"


def _run_threads(worker) -> list[Exception]:
    errors: list[Exception] = []
    barrier = threading.Barrier(THREADS)

    def wrapped(index: int) -> None:
        try:
            barrier.wait(timeout=30)
            worker(index)
        except Exception as error:  # pragma: no cover - the failure path
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(n,)) for n in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "stress worker hung"
    return errors


class TestNoLostWrites:
    def test_disjoint_keys_all_acknowledged_writes_readable(self, tmp_path):
        """8 threads x disjoint keys, caps never binding: zero lost writes,
        zero misses on readback, exact counters."""
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(memory_entries=THREADS * KEYS_PER_THREAD * 2),
        )
        keys = {
            worker: [_fingerprint(f"w{worker}-k{index}") for index in range(KEYS_PER_THREAD)]
            for worker in range(THREADS)
        }

        def worker(index: int) -> None:
            for key in keys[index]:
                store.put(key, _payload(key))
                lookup = store.get(key)  # immediate readback must hit
                assert lookup.hit, f"lost write {key}"
                _check_payload(key, lookup.payload)

        errors = _run_threads(worker)
        assert not errors, errors[:3]

        for worker_keys in keys.values():  # every write still readable at the end
            for key in worker_keys:
                lookup = store.get(key)
                assert lookup.hit and lookup.tier == "memory"
                _check_payload(key, lookup.payload)

        stats = store.stats()
        total = THREADS * KEYS_PER_THREAD
        assert stats.puts == total
        assert stats.lookups == 2 * total
        assert stats.memory_hits == 2 * total
        assert stats.misses == 0 and stats.evictions == 0
        assert stats.memory_hits + stats.disk_hits + stats.misses == stats.lookups
        store.close()

    def test_overlapping_keys_no_torn_reads(self):
        """8 threads racing put/get on 24 shared keys: every observed payload
        is a complete write of that key (version-tagged, self-validating)."""
        store = ResultStore()
        shared = [_fingerprint(f"shared-{index}") for index in range(24)]
        gets_per_thread = 300

        def worker(index: int) -> None:
            for step in range(gets_per_thread):
                key = shared[(index * 7 + step) % len(shared)]
                if step % 3 == 0:
                    store.put(key, _payload(key, version=index * 1000 + step))
                lookup = store.get(key)
                if lookup.hit:
                    _check_payload(key, lookup.payload)

        errors = _run_threads(worker)
        assert not errors, errors[:3]
        stats = store.stats()
        assert stats.lookups == THREADS * gets_per_thread
        assert stats.puts == THREADS * len(range(0, gets_per_thread, 3))
        assert stats.memory_hits + stats.disk_hits + stats.misses == stats.lookups


class TestEvictionUnderPressure:
    def test_bounded_store_stays_consistent_and_within_caps(self, tmp_path):
        """Tiny caps + 8 threads: no exceptions, sizes within caps, eviction
        counters advance, stats arithmetic stays exact."""
        limits = StoreLimits(memory_entries=32, disk_bytes=4096)
        store = ResultStore(cache_dir=tmp_path, limits=limits)
        operations_per_thread = 200

        def worker(index: int) -> None:
            for step in range(operations_per_thread):
                key = _fingerprint(f"p{index}-{step % 50}")
                store.put(key, _payload(key, version=step))
                lookup = store.get(key)
                if lookup.hit:
                    _check_payload(key, lookup.payload)

        errors = _run_threads(worker)
        assert not errors, errors[:3]

        stats = store.stats()
        assert stats.puts == THREADS * operations_per_thread
        assert stats.lookups == THREADS * operations_per_thread
        assert stats.memory_hits + stats.disk_hits + stats.misses == stats.lookups
        assert stats.evictions + stats.disk_evictions > 0  # the caps did bind
        assert store.sizes()["memory"] <= 32
        assert store.payload_bytes()["disk"] <= 4096
        store.close()

    def test_eviction_never_drops_the_in_flight_entry(self, tmp_path):
        """The entry a put just wrote survives its own eviction pass in both
        tiers, even when it alone exceeds the disk tier's byte cap."""
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(memory_entries=1, disk_bytes=16),
        )
        big = "b" * 64  # four times the byte cap
        store.put("first", big)
        assert store.get("first").payload == big  # survives in memory
        store.put("second", big)
        # The older entry yields; the acknowledged write is always readable.
        assert store.get("second").payload == big
        stats = store.stats()
        assert stats.evictions >= 1 and stats.disk_evictions >= 1
        store.close()

    def test_ttl_expiry_is_counted_in_both_tiers(self, tmp_path):
        """Entries expire lazily after the TTL in the memory and disk tiers."""
        now = [1000.0]
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(ttl_seconds=10.0),
            clock=lambda: now[0],
        )
        store.put("k", "payload")
        assert store.get("k").tier == "memory"
        now[0] += 11.0
        lookup = store.get("k")  # expired in memory AND on disk -> miss
        assert not lookup.hit
        stats = store.stats()
        assert stats.ttl_evictions == 2  # one per tier
        assert stats.misses == 1
        store.close()

    def test_disk_promotion_keeps_the_original_ttl_clock(self, tmp_path):
        """Promoting a disk hit into the memory tier must not restart the
        entry's TTL: the promoted copy expires at write-time + TTL, not at
        promotion-time + TTL."""
        now = [1000.0]
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(memory_entries=1, ttl_seconds=10.0),
            clock=lambda: now[0],
        )
        store.put("old", "payload")
        store.put("newer", "payload2")  # evicts "old" from memory; disk keeps it
        now[0] += 8.0
        assert store.get("old").tier == "disk"  # promoted with stored_at=1000
        now[0] += 4.0  # 12 s after the write, 4 s after the promotion
        assert not store.get("old").hit, "promotion stretched the TTL"
        assert store.stats().ttl_evictions >= 1
        store.close()
