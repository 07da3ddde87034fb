"""The one bounded memo behind every cross-call cache (:mod:`repro.memo`)."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.memo import Memo, value_key

THREADS = 8


def _run_threads(worker) -> list[Exception]:
    """Run ``worker(index)`` on THREADS threads started together, with a
    tiny switch interval so they interleave inside every operation."""
    start = threading.Barrier(THREADS, timeout=30.0)
    errors: list[Exception] = []

    def run(index: int) -> None:
        start.wait()
        try:
            worker(index)
        except Exception as error:  # surfaced by the caller's assertion
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return errors


class TestMemo:
    def test_get_put_clear_len(self):
        memo: Memo[str, int] = Memo(4)
        assert memo.get("a") is None
        memo.put("a", 1)
        assert memo.get("a") == 1
        assert len(memo) == 1
        memo.clear()
        assert len(memo) == 0 and memo.get("a") is None

    def test_evicts_the_least_recently_used(self):
        memo: Memo[str, int] = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refreshes "a", so "b" is evicted next
        memo.put("c", 3)
        assert memo.keys() == ["a", "c"]
        assert memo.get("b") is None

    def test_re_put_at_capacity_evicts_nothing(self):
        memo: Memo[str, int] = Memo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        memo.put("a", 10)
        assert memo.keys() == ["b", "a"]
        assert memo.get("a") == 10 and memo.get("b") == 2

    def test_get_or_create_builds_once(self):
        memo: Memo[str, list] = Memo(2)
        first = memo.get_or_create("k", list)
        assert memo.get_or_create("k", list) is first
        assert len(memo) == 1

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            Memo(0)

    def test_value_key(self):
        assert value_key("a", 1) == ("a", 1)
        assert value_key("a", [1]) is None
        memo: Memo[tuple, int] = Memo(2)
        with pytest.raises(TypeError):
            memo.get(("a", [1]))


class TestMemoUnderThreads:
    def test_more_keys_than_the_cap_raise_nothing(self):
        """8 threads each cycling through more keys than the cap: every get
        races another thread's eviction, yet nothing raises, every hit is
        the value put under its key and the length never exceeds the cap."""
        memo: Memo[tuple, tuple] = Memo(4)
        lengths: list[int] = []

        def worker(index: int) -> None:
            for step in range(2000):
                key = (index, step % 7)
                value = memo.get(key)
                assert value is None or value == key
                if value is None:
                    memo.put(key, key)
                lengths.append(len(memo))

        assert _run_threads(worker) == []
        assert max(lengths) <= 4
        assert len(memo) <= 4

    def test_get_or_create_is_atomic(self):
        """Threads racing on one missing key all get the same value, built
        once -- what the shared relaxation-cache and packing-memo registries
        rely on."""
        memo: Memo[str, object] = Memo(2)
        built: list[object] = []
        seen: list[object] = []

        def factory() -> object:
            built.append(object())
            return built[-1]

        def worker(index: int) -> None:
            for _ in range(200):
                seen.append(memo.get_or_create("shared", factory))

        assert _run_threads(worker) == []
        assert len(built) == 1
        assert all(value is built[0] for value in seen)
