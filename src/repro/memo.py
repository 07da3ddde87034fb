"""One bounded memo for every cross-call cache.

Each stage of the pipeline (the relaxed GP, the discretisation, Algorithm 1,
the packing probes) and the service (decoded
outcomes, decoded requests, traces) keeps results across calls in a
:class:`Memo`: a lock-protected LRU map with an entry cap.  The memos are
shared by the threads of the HTTP service, so every operation holds the
memo's lock; an expensive value is computed outside it and then ``put``.

Hit and miss counts are not kept here: a memo shared by concurrent solves
cannot say which solve a hit belongs to, so callers count their own.

This module imports only the standard library, so every layer can use it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


def value_key(*parts: object) -> tuple | None:
    """``parts`` as a memo key, or ``None`` when one of them is unhashable."""
    try:
        hash(parts)
    except TypeError:
        return None
    return parts


class Memo(Generic[K, V]):
    """Lock-protected LRU map holding at most ``max_entries`` entries.

    ``get`` and ``put`` refresh an entry's recency; a ``put`` that grows the
    map past its cap evicts the least recently used entry.
    """

    __slots__ = ("max_entries", "_entries", "_lock")

    def __init__(self, max_entries: int):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._entries: "OrderedDict[K, V]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: K) -> V | None:
        """The value stored under ``key``, or ``None``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                return None
            self._entries.move_to_end(key)
            return value  # type: ignore[return-value]

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._insert(key, value)

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """The value under ``key``; on a miss ``factory()`` is stored and
        returned, under the lock, so concurrent callers share one value."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                value = factory()
                self._insert(key, value)  # type: ignore[arg-type]
            else:
                self._entries.move_to_end(key)
            return value  # type: ignore[return-value]

    def _insert(self, key: K, value: V) -> None:
        entries = self._entries
        entries[key] = value
        entries.move_to_end(key)
        if len(entries) > self.max_entries:
            entries.popitem(last=False)

    def keys(self) -> list[K]:
        """Keys from least to most recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
