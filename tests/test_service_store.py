"""Tests for the multi-tier result store (repro.service.store)."""

from __future__ import annotations

import threading
import time

from repro.service.store import (
    MemoryTier,
    ResultStore,
    SqliteTier,
    StoreLimits,
)


class TestMemoryTier:
    def test_lru_evicts_least_recently_used(self):
        tier = MemoryTier(capacity=2)
        assert tier.put("a", "1") == 0
        assert tier.put("b", "2") == 0
        assert tier.get("a") == "1"  # refresh "a": "b" becomes the LRU entry
        assert tier.put("c", "3") == 1
        assert "b" not in tier
        assert tier.get("a") == "1" and tier.get("c") == "3"

    def test_put_refreshes_existing_key_without_eviction(self):
        tier = MemoryTier(capacity=2)
        tier.put("a", "1")
        tier.put("b", "2")
        assert tier.put("a", "new") == 0
        assert tier.get("a") == "new"
        assert len(tier) == 2


class TestSqliteTier:
    def test_round_trip_and_replace(self, tmp_path):
        tier = SqliteTier(tmp_path / "cache" / "results.sqlite")
        assert tier.get("k") is None
        tier.put("k", "payload")
        assert tier.get("k") == "payload"
        tier.put("k", "payload2")
        assert tier.get("k") == "payload2"
        assert len(tier) == 1
        tier.close()

    def test_persists_across_connections(self, tmp_path):
        path = tmp_path / "results.sqlite"
        first = SqliteTier(path)
        first.put("k", "payload")
        first.close()
        second = SqliteTier(path)
        assert second.get("k") == "payload"
        second.close()


class TestResultStore:
    def test_memory_only_store_counts_hits_and_misses(self):
        store = ResultStore()
        assert not store.has_disk_tier
        assert not store.get("k").hit
        store.put("k", "payload")
        lookup = store.get("k")
        assert lookup.hit and lookup.tier == "memory"
        stats = store.stats()
        assert stats.misses == 1 and stats.memory_hits == 1 and stats.puts == 1
        assert stats.lookups == 2 and stats.hit_rate == 0.5

    def test_eviction_counter(self):
        store = ResultStore(memory_capacity=1)
        store.put("a", "1")
        store.put("b", "2")
        assert store.stats().evictions == 1
        assert not store.get("a").hit  # evicted, no disk tier to fall back to

    def test_warm_restart_hits_disk_tier(self, tmp_path):
        with ResultStore(cache_dir=tmp_path) as store:
            store.put("k", "payload")
            assert store.get("k").tier == "memory"
        # A fresh store over the same directory models a restarted server.
        with ResultStore(cache_dir=tmp_path) as reborn:
            lookup = reborn.get("k")
            assert lookup.hit and lookup.tier == "disk"
            assert reborn.stats().disk_hits == 1
            # The disk hit was promoted: the next lookup stays in memory.
            assert reborn.get("k").tier == "memory"

    def test_disk_tier_backfills_memory_evictions(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, memory_capacity=1)
        store.put("a", "1")
        store.put("b", "2")  # evicts "a" from memory, both live on disk
        assert store.get("a").tier == "disk"
        assert store.sizes() == {"memory": 1, "disk": 2}
        store.close()

    def test_thread_safety_smoke(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path, memory_capacity=64)
        errors: list[Exception] = []

        def hammer(worker: int) -> None:
            try:
                for index in range(50):
                    key = f"{worker}-{index % 8}"
                    store.put(key, "x" * 32)
                    assert store.get(key).hit
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert store.stats().puts == 200
        store.close()

    def test_memory_tier_ages_on_a_monotonic_clock(self):
        """The in-process tier must not expire on wall-clock arithmetic: an
        NTP step or a container suspend would mass-expire a warm cache (or
        immortalise it, stepping backwards)."""
        assert MemoryTier()._clock is time.monotonic

    def test_wall_clock_steps_do_not_disturb_memory_ttl(self):
        """Regression: TTL expiry used the wall clock.  A backwards step must
        not immortalise entries, a forwards step must not mass-expire them;
        only monotonic elapsed time may age the memory tier."""
        wall = [1000.0]
        mono = [50.0]
        store = ResultStore(
            limits=StoreLimits(ttl_seconds=10.0),
            clock=lambda: wall[0],
            monotonic_clock=lambda: mono[0],
        )
        store.put("steady", "payload")
        wall[0] -= 3600.0  # NTP correction steps the wall clock backwards
        mono[0] += 5.0
        assert store.get("steady").tier == "memory"  # not immortalised: still ages
        wall[0] += 7200.0  # ...and a forwards step must not mass-expire
        mono[0] += 1.0  # 6 s of real elapsed time, well inside the TTL
        assert store.get("steady").tier == "memory"
        mono[0] += 5.0  # 11 s of real elapsed time: expired on schedule
        assert not store.get("steady").hit
        assert store.stats().ttl_evictions == 1

    def test_promotion_converts_disk_wall_age_to_monotonic(self, tmp_path):
        """A disk hit promoted into memory carries its original *age* across
        the wall->monotonic clock boundary: the promoted copy still expires
        at write-time + TTL, even though the tiers read different clocks."""
        wall = [1000.0]
        mono = [0.0]
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(memory_entries=1, ttl_seconds=10.0),
            clock=lambda: wall[0],
            monotonic_clock=lambda: mono[0],
        )
        store.put("old", "payload")
        store.put("newer", "payload2")  # evicts "old" from memory; disk keeps it
        wall[0] += 8.0
        mono[0] += 8.0
        assert store.get("old").tier == "disk"  # promoted carrying 8 s of age
        wall[0] += 4.0
        mono[0] += 4.0  # 12 s after the write, 4 s after the promotion
        assert not store.get("old").hit, "promotion restarted the TTL clock"
        assert store.stats().ttl_evictions >= 2  # promoted copy + disk row

    def test_sweep_expired_clears_untouched_entries_from_sizes(self, tmp_path):
        """Regression: lazy expiry only fires on access, so entries that
        expire and are never queried again kept inflating ``sizes()`` (the
        /stats and /metrics gauges) forever.  The telemetry-time sweep drops
        them from both tiers and counts them as TTL evictions."""
        now = [1000.0]
        store = ResultStore(
            cache_dir=tmp_path,
            limits=StoreLimits(ttl_seconds=10.0),
            clock=lambda: now[0],
        )
        store.put("a", "1")
        store.put("b", "2")
        now[0] += 11.0
        store.put("c", "3")  # written after the step: must survive the sweep
        assert store.sweep_expired() == 4  # "a" and "b", once per tier
        assert store.sizes() == {"memory": 1, "disk": 1}
        assert store.get("c").hit
        assert store.stats().ttl_evictions == 4
        assert store.sweep_expired() == 0  # idempotent once clean
        store.close()

    def test_sweep_expired_without_ttl_is_a_no_op(self, tmp_path):
        store = ResultStore(cache_dir=tmp_path)
        store.put("k", "payload")
        assert store.sweep_expired() == 0
        assert store.sizes() == {"memory": 1, "disk": 1}
        store.close()

    def test_operations_stay_safe_after_close(self, tmp_path):
        # The CLI renders a final stats table after the service is closed;
        # a closed store must keep answering (degraded to memory-only).
        store = ResultStore(cache_dir=tmp_path)
        store.put("k", "payload")
        store.close()
        store.close()  # idempotent
        assert store.sizes() == {"memory": 1, "disk": 1}
        assert store.stats().puts == 1
        assert store.get("k").tier == "memory"  # memory tier still serves
        store.put("late", "x")  # no crash; memory-only from here on
