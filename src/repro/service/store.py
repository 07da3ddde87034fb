"""Result store tiers: bounded LRU memory + SQLite disk.

Payloads are opaque JSON strings (serialised :class:`~repro.core.solution.
SolveOutcome` documents) keyed by the canonical request fingerprint of
:mod:`repro.service.canonical`.  The memory tier answers repeat queries
within a process in microseconds; the SQLite tier survives restarts, so a
rebooted server keeps answering warm queries without re-solving.  Hits,
misses, evictions and writes are counted per tier and surfaced through the
reporting layer (:func:`repro.reporting.service.cache_stats_table`) and the
server's ``/stats`` endpoint.

:class:`ResultStore` is one LRU front and one SQLite file behind one lock.
The service scales out with worker processes, each owning its own store
(:mod:`repro.service.pool`), not with shards inside one process.

Both tiers accept :class:`StoreLimits`: entry caps, byte caps and a TTL.
Admission is never refused -- an acknowledged ``put`` is always readable
immediately afterwards (the just-written entry is exempt from the eviction
pass that its own insert triggers); instead the *oldest* entries are evicted
once a cap is exceeded, and expired entries are dropped lazily on access.
Every eviction is counted (``evictions``, ``disk_evictions``,
``ttl_evictions``) so capacity pressure is visible in ``/stats`` long before
it becomes an incident.

All operations are thread-safe: the HTTP server handles requests on a
thread pool and shares one store with the async job workers.

Durability hardening (PR 8): every SQLite connection runs with
``journal_mode=WAL``, ``synchronous=NORMAL`` and a 5 s ``busy_timeout``
(concurrent writers stop failing fast on lock contention), and a
corrupt database file -- at open *or* mid-operation -- is **quarantined**:
renamed to ``results.sqlite.corrupt-<n>`` next to a fresh empty file, the
``quarantines`` counter incremented, and the store continues cold.  Losing
the cache file costs recomputation, never availability.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .faults import inject

#: File name of the SQLite tier inside a cache directory.
SQLITE_FILENAME = "results.sqlite"


@dataclass(frozen=True)
class StoreLimits:
    """Admission-control knobs of one store (``None`` means unbounded).

    ``memory_entries`` keeps the historical default of the PR 2 store; every
    other cap defaults to unbounded so existing callers see no behaviour
    change until they opt in.
    """

    memory_entries: int = 4096
    disk_bytes: int | None = None
    ttl_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        if self.disk_bytes is not None and self.disk_bytes < 1:
            raise ValueError("disk_bytes must be >= 1 (or None for unbounded)")
        if self.ttl_seconds is not None and self.ttl_seconds <= 0:
            raise ValueError("ttl_seconds must be positive (or None for no expiry)")


@dataclass
class CacheStats:
    """Counters of one result store (cumulative since creation)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_evictions: int = 0
    ttl_evictions: int = 0
    quarantines: int = 0

    @property
    def lookups(self) -> int:
        return self.memory_hits + self.disk_hits + self.misses

    @property
    def hit_rate(self) -> float:
        lookups = self.lookups
        return (self.memory_hits + self.disk_hits) / lookups if lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_evictions": self.disk_evictions,
            "ttl_evictions": self.ttl_evictions,
            "quarantines": self.quarantines,
            "lookups": self.lookups,
            "hit_rate": self.hit_rate,
        }

    def snapshot(self) -> "CacheStats":
        return CacheStats(
            memory_hits=self.memory_hits,
            disk_hits=self.disk_hits,
            misses=self.misses,
            puts=self.puts,
            evictions=self.evictions,
            disk_evictions=self.disk_evictions,
            ttl_evictions=self.ttl_evictions,
            quarantines=self.quarantines,
        )

    def add(self, other: "CacheStats") -> "CacheStats":
        """Add another store's counters into this one (in place)."""
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions
        self.disk_evictions += other.disk_evictions
        self.ttl_evictions += other.ttl_evictions
        self.quarantines += other.quarantines
        return self


class MemoryTier:
    """A bounded LRU mapping of fingerprint -> payload string.

    Besides its entry cap, the tier can expire entries after
    ``ttl_seconds``.  Expiry
    is lazy -- an expired entry is dropped when it is next touched (or when
    it reaches the LRU head during an eviction pass) -- which is exactly
    right for deterministic solver results: the TTL exists to bound staleness
    across *schema* changes, not to free memory on a deadline.  Telemetry
    that must not overreport warm capacity calls :meth:`sweep_expired` at
    collection time.

    TTL arithmetic uses ``time.monotonic()`` by default: the tier dies with
    the process, so its timestamps never need to survive a restart, and a
    wall-clock step (NTP correction, container suspend/resume) must neither
    mass-expire a warm cache nor immortalise entries.  The disk tier keeps
    wall-clock times for restart semantics; the owning store converts at the
    promotion boundary.
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity < 1:
            raise ValueError("memory tier capacity must be >= 1")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        #: fingerprint -> (payload, stored_at, payload_bytes); ordered
        #: least-recently-used first.  The byte length is computed once per
        #: insert (encoding a large payload on every eviction-loop iteration
        #: would tax eviction-pressure workloads).
        self._entries: OrderedDict[str, tuple[str, float, int]] = OrderedDict()
        self._bytes = 0
        self.evictions = 0
        self.ttl_evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def payload_bytes(self) -> int:
        return self._bytes

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    def _expired(self, stored_at: float, now: float) -> bool:
        return self.ttl_seconds is not None and now - stored_at > self.ttl_seconds

    def _drop(self, fingerprint: str) -> None:
        _, _, payload_bytes = self._entries.pop(fingerprint)
        self._bytes -= payload_bytes

    def get(self, fingerprint: str) -> str | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            return None
        payload, stored_at, _ = entry
        if self._expired(stored_at, self._clock()):
            self._drop(fingerprint)
            self.ttl_evictions += 1
            return None
        self._entries.move_to_end(fingerprint)
        return payload

    def put(self, fingerprint: str, payload: str, stored_at: float | None = None) -> int:
        """Insert (or refresh) an entry; returns the number of cap evictions.

        ``stored_at`` back-dates the entry's TTL clock -- a disk hit promoted
        into this tier must keep its original write time, or promotion would
        stretch the configured expiry to nearly twice its length.
        """
        now = self._clock()
        if fingerprint in self._entries:
            self._drop(fingerprint)
        self._entries[fingerprint] = (
            payload,
            now if stored_at is None else stored_at,
            len(payload.encode("utf-8")),
        )
        self._bytes += self._entries[fingerprint][2]
        return self._evict_over_caps(now)

    def _evict_over_caps(self, now: float) -> int:
        """Evict LRU-head entries until the entry cap holds; returns cap
        evictions.  The just-written entry sits at the tail, so it survives."""
        evicted = 0
        while len(self._entries) > self.capacity:
            oldest, (_, oldest_stored_at, _) = next(iter(self._entries.items()))
            self._drop(oldest)
            if self._expired(oldest_stored_at, now):
                self.ttl_evictions += 1
            else:
                evicted += 1
        self.evictions += evicted
        return evicted

    def sweep_expired(self) -> int:
        """Drop every expired entry now (telemetry-time sweep); returns count.

        Lazy expiry only fires on access, so entries that expire and are
        never touched again would keep inflating the size gauges forever.
        Stats/scrape collection calls this so capacity telemetry reports
        live entries only; each drop counts as a ``ttl_eviction``.
        """
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        expired = [
            fingerprint
            for fingerprint, (_, stored_at, _) in self._entries.items()
            if self._expired(stored_at, now)
        ]
        for fingerprint in expired:
            self._drop(fingerprint)
        self.ttl_evictions += len(expired)
        return len(expired)


class SqliteTier:
    """On-disk fingerprint -> payload table backed by SQLite.

    A single connection is shared across threads behind the owning store's
    lock (SQLite connections are not concurrency-safe by themselves).  Writes
    are committed immediately: a crashed or killed server loses nothing that
    was already answered.  A byte cap evicts the oldest rows first
    (``created_unix`` order), and expired rows are dropped lazily on access;
    both are counted on the tier (``evictions`` / ``ttl_evictions``).

    Connections run with ``journal_mode=WAL`` (readers never block the
    writer), ``synchronous=NORMAL`` (durable past an application crash; the
    cache is rebuildable, so the power-cut window is acceptable) and a 5 s
    ``busy_timeout``.  A corrupt database file -- detected at open or when
    any statement raises ``sqlite3.DatabaseError`` -- is quarantined
    (renamed to ``<name>.corrupt-<n>``) and replaced with a fresh empty
    tier; the operation that tripped it degrades to a cache miss.
    """

    def __init__(
        self,
        path: str | Path,
        max_bytes: int | None = None,
        ttl_seconds: float | None = None,
        clock: Callable[[], float] = time.time,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self.evictions = 0
        self.ttl_evictions = 0
        self.quarantines = 0
        self._entries = 0
        self._bytes = 0
        try:
            self._connection = self._open()
        except sqlite3.DatabaseError:
            self._quarantine_files()
            self._connection = self._open()

    def _open(self) -> sqlite3.Connection:
        """Connect, apply the hardening pragmas, ensure the schema, count."""
        connection = sqlite3.connect(str(self.path), check_same_thread=False)
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute("PRAGMA busy_timeout=5000")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " fingerprint TEXT PRIMARY KEY,"
                " payload TEXT NOT NULL,"
                " created_unix REAL NOT NULL)"
            )
            connection.commit()
            row = connection.execute(
                "SELECT COUNT(*), COALESCE(SUM(LENGTH(CAST(payload AS BLOB))), 0) FROM results"
            ).fetchone()
        except sqlite3.DatabaseError:
            connection.close()
            raise
        self._entries = int(row[0])
        self._bytes = int(row[1])
        return connection

    def _quarantine_files(self) -> None:
        """Move the corrupt database (and its WAL/SHM siblings) aside."""
        self.quarantines += 1
        suffix = 0
        while True:
            target = self.path.with_name(f"{self.path.name}.corrupt-{suffix}")
            if not target.exists():
                break
            suffix += 1
        if self.path.exists():
            self.path.replace(target)
        for sibling in ("-wal", "-shm"):
            companion = self.path.with_name(self.path.name + sibling)
            if companion.exists():
                companion.replace(target.with_name(target.name + sibling))

    def _recover_from_corruption(self) -> None:
        """Quarantine the live database and reopen cold (mid-operation)."""
        try:
            self._connection.close()
        except sqlite3.Error:
            pass
        self._quarantine_files()
        self._connection = self._open()

    def __len__(self) -> int:
        return self._entries

    @property
    def payload_bytes(self) -> int:
        return self._bytes

    def _delete(self, fingerprint: str, payload_bytes: int) -> None:
        self._connection.execute(
            "DELETE FROM results WHERE fingerprint = ?", (fingerprint,)
        )
        self._entries -= 1
        self._bytes -= payload_bytes

    def get_entry(self, fingerprint: str) -> tuple[str, float] | None:
        """Payload plus its original write time (``None`` on miss/expiry).

        Corruption surfaces as a miss: the tier quarantines itself, reopens
        cold and lets the caller recompute -- never an exception upward.
        """
        try:
            return self._get_entry(fingerprint)
        except sqlite3.DatabaseError:
            self._recover_from_corruption()
            return None

    def _get_entry(self, fingerprint: str) -> tuple[str, float] | None:
        row = self._connection.execute(
            "SELECT payload, created_unix FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None:
            return None
        payload, created_unix = row
        if self.ttl_seconds is not None and self._clock() - created_unix > self.ttl_seconds:
            self._delete(fingerprint, len(payload.encode("utf-8")))
            self._connection.commit()
            self.ttl_evictions += 1
            return None
        return payload, float(created_unix)

    def get(self, fingerprint: str) -> str | None:
        entry = self.get_entry(fingerprint)
        return None if entry is None else entry[0]

    def put(self, fingerprint: str, payload: str) -> int:
        """Write a payload; returns the number of cap evictions it caused.

        A corrupt database quarantines itself and the write is retried once
        against the fresh file, so the entry an acknowledged solve produced
        still lands on disk.
        """
        try:
            return self._put(fingerprint, payload)
        except sqlite3.DatabaseError:
            self._recover_from_corruption()
            return self._put(fingerprint, payload)

    def _put(self, fingerprint: str, payload: str) -> int:
        now = self._clock()
        previous = self._connection.execute(
            "SELECT LENGTH(CAST(payload AS BLOB)) FROM results WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        self._connection.execute(
            "INSERT OR REPLACE INTO results (fingerprint, payload, created_unix) VALUES (?, ?, ?)",
            (fingerprint, payload, now),
        )
        if previous is None:
            self._entries += 1
        else:
            self._bytes -= int(previous[0])
        self._bytes += len(payload.encode("utf-8"))
        evicted = self._evict_over_caps(protect=fingerprint, now=now)
        self._connection.commit()
        return evicted

    def _evict_over_caps(self, protect: str, now: float) -> int:
        """Evict oldest-first until the byte cap holds, never touching ``protect``."""
        evicted = 0
        while (
            self._entries > 1 and self.max_bytes is not None and self._bytes > self.max_bytes
        ):
            row = self._connection.execute(
                "SELECT fingerprint, LENGTH(CAST(payload AS BLOB)), created_unix FROM results"
                " WHERE fingerprint != ? ORDER BY created_unix ASC, fingerprint ASC LIMIT 1",
                (protect,),
            ).fetchone()
            if row is None:  # only the protected entry remains
                break
            fingerprint, payload_bytes, created_unix = row
            self._delete(fingerprint, int(payload_bytes))
            if self.ttl_seconds is not None and now - created_unix > self.ttl_seconds:
                self.ttl_evictions += 1
            else:
                evicted += 1
        self.evictions += evicted
        return evicted

    def sweep_expired(self) -> int:
        """Drop every expired row now (telemetry-time sweep); returns count.

        Rows that expire and are never queried again would otherwise keep
        inflating the disk-size gauges forever (expiry is lazy on access).
        Each dropped row counts as a ``ttl_eviction``; corruption degrades
        to a no-op sweep after quarantining, as everywhere else.
        """
        if self.ttl_seconds is None:
            return 0
        try:
            return self._sweep_expired()
        except sqlite3.DatabaseError:
            self._recover_from_corruption()
            return 0

    def _sweep_expired(self) -> int:
        cutoff = self._clock() - self.ttl_seconds
        row = self._connection.execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(CAST(payload AS BLOB))), 0)"
            " FROM results WHERE created_unix < ?",
            (cutoff,),
        ).fetchone()
        count = int(row[0])
        if count == 0:
            return 0
        self._connection.execute(
            "DELETE FROM results WHERE created_unix < ?", (cutoff,)
        )
        self._connection.commit()
        self._entries -= count
        self._bytes -= int(row[1])
        self.ttl_evictions += count
        return count

    def close(self) -> None:
        self._connection.close()


@dataclass
class StoreLookup:
    """Result of one store lookup: the payload (if any) and the tier it hit."""

    payload: str | None
    tier: str | None  # "memory", "disk" or None on a miss

    @property
    def hit(self) -> bool:
        return self.payload is not None


class ResultStore:
    """LRU memory tier in front of an optional SQLite disk tier.

    Parameters
    ----------
    cache_dir:
        Directory for the SQLite tier (created if missing).  ``None`` keeps
        the store memory-only -- fine for tests and throwaway servers, but
        results then die with the process.
    memory_capacity:
        Maximum number of payloads held by the LRU tier (shorthand for
        ``limits.memory_entries``; ignored when ``limits`` is passed).
    limits:
        Full admission-control configuration (byte caps, disk caps, TTL).
    """

    def __init__(
        self,
        cache_dir: str | Path | None = None,
        memory_capacity: int = 4096,
        limits: StoreLimits | None = None,
        clock: Callable[[], float] = time.time,
        monotonic_clock: Callable[[], float] | None = None,
    ):
        self.limits = limits if limits is not None else StoreLimits(memory_entries=memory_capacity)
        self._lock = threading.Lock()
        # The wall clock stamps the SQLite tier (its timestamps must survive
        # restarts); the memory tier ages on a monotonic clock so a wall-clock
        # step can neither mass-expire a warm cache nor immortalise entries.
        # A test that injects one fake ``clock`` drives both tiers unless it
        # also injects ``monotonic_clock``.
        self._wall_clock = clock
        if monotonic_clock is None:
            monotonic_clock = time.monotonic if clock is time.time else clock
        self._monotonic_clock = monotonic_clock
        self._memory = MemoryTier(
            capacity=self.limits.memory_entries,
            ttl_seconds=self.limits.ttl_seconds,
            clock=monotonic_clock,
        )
        self._disk = (
            SqliteTier(
                Path(cache_dir) / SQLITE_FILENAME,
                max_bytes=self.limits.disk_bytes,
                ttl_seconds=self.limits.ttl_seconds,
                clock=clock,
            )
            if cache_dir
            else None
        )
        self._disk_size_at_close: int | None = None
        self._disk_counters_at_close = (0, 0, 0)
        self._stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Lookup / insert
    # ------------------------------------------------------------------ #
    def get(self, fingerprint: str) -> StoreLookup:
        """Look a fingerprint up, promoting disk hits into the memory tier."""
        inject("store.get")
        with self._lock:
            payload = self._memory.get(fingerprint)
            if payload is not None:
                self._stats.memory_hits += 1
                return StoreLookup(payload=payload, tier="memory")
            if self._disk is not None:
                entry = self._disk.get_entry(fingerprint)
                if entry is not None:
                    payload, created_unix = entry
                    self._stats.disk_hits += 1
                    # Promote with the entry's original *age* re-expressed on
                    # the memory tier's monotonic clock: promotion must not
                    # restart the TTL, and the disk tier's wall-clock write
                    # time is not comparable to a monotonic reading directly.
                    age = max(0.0, self._wall_clock() - created_unix)
                    self._memory.put(
                        fingerprint, payload, stored_at=self._monotonic_clock() - age
                    )
                    return StoreLookup(payload=payload, tier="disk")
            self._stats.misses += 1
            return StoreLookup(payload=None, tier=None)

    def put(self, fingerprint: str, payload: str) -> None:
        """Write a payload into every tier."""
        inject("store.put")
        with self._lock:
            self._stats.puts += 1
            self._memory.put(fingerprint, payload)
            if self._disk is not None:
                self._disk.put(fingerprint, payload)

    def sweep_expired(self) -> int:
        """Drop expired entries in both tiers now; returns the total dropped.

        Called at stats/scrape collection time so the size gauges report
        live entries only -- lazy expiry alone lets never-touched-again
        entries inflate them indefinitely.  Every drop is a ``ttl_eviction``.
        """
        with self._lock:
            swept = self._memory.sweep_expired()
            if self._disk is not None:
                swept += self._disk.sweep_expired()
            return swept

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> CacheStats:
        """Snapshot of the cumulative counters (safe to mutate)."""
        with self._lock:
            snapshot = self._stats.snapshot()
            disk_evictions, disk_ttl, disk_quarantines = self._disk_counters_at_close
            if self._disk is not None:
                disk_evictions = self._disk.evictions
                disk_ttl = self._disk.ttl_evictions
                disk_quarantines = self._disk.quarantines
            snapshot.evictions = self._memory.evictions
            snapshot.disk_evictions = disk_evictions
            snapshot.ttl_evictions = self._memory.ttl_evictions + disk_ttl
            snapshot.quarantines = disk_quarantines
            return snapshot

    def sizes(self) -> dict[str, int]:
        """Current entry counts per tier."""
        with self._lock:
            sizes = {"memory": len(self._memory)}
            if self._disk is not None:
                sizes["disk"] = len(self._disk)
            elif self._disk_size_at_close is not None:
                sizes["disk"] = self._disk_size_at_close
            return sizes

    def payload_bytes(self) -> dict[str, int]:
        """Current payload byte totals per tier (admission-control telemetry)."""
        with self._lock:
            totals = {"memory": self._memory.payload_bytes}
            if self._disk is not None:
                totals["disk"] = self._disk.payload_bytes
            return totals

    @property
    def has_disk_tier(self) -> bool:
        return self._disk is not None

    def close(self) -> None:
        """Close the disk tier; the store degrades to memory-only.

        Idempotent, and every other operation stays safe afterwards (the
        CLI renders a final stats table after shutting the service down).
        """
        with self._lock:
            if self._disk is not None:
                self._disk_size_at_close = len(self._disk)
                self._disk_counters_at_close = (
                    self._disk.evictions,
                    self._disk.ttl_evictions,
                    self._disk.quarantines,
                )
                self._disk.close()
                self._disk = None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
