"""A pool of shard-group worker processes behind one supervisor.

One Python process serves at most one core's worth of warm cache hits: the
PR 5/6 work pushed single-process warm replay to ~900k req/s and the GIL is
the wall.  This module runs **one full service per shard group** -- its own
LRU+SQLite result store, its own async job queue, its own WAL segments --
as a separate OS process with a private HTTP endpoint, so N groups serve on
N cores.  The routing front-end (:mod:`repro.service.router`) maps request
fingerprints onto groups with the consistent hash ring of
:mod:`repro.service.hashing`; this module owns everything *below* the ring:

* **lifecycle** -- workers are started with the ``spawn`` context (safe in
  a threaded parent, unlike ``fork``), hand their ephemeral port back
  through a pipe, and are considered up once the handshake lands;
* **health** -- a monitor thread heartbeats every worker process and
  notices exits within ``heartbeat_seconds``;
* **graceful drain** -- ``close()`` sends SIGTERM; each worker stops its
  accept loop, finishes queued jobs, final-fsyncs and closes its WAL
  segments, then exits 0 (escalation to SIGKILL only after a timeout);
* **crash recovery** -- a worker that dies (``kill -9``, OOM, a bug) is
  restarted automatically *on the same group directory*, so its
  ``AllocationService`` replays the WAL and every acknowledged job the
  dead process was holding is re-enqueued before the new process serves;
* **online resize** -- :meth:`WorkerPool.add_group` starts a worker for
  group N+1 and returns once it is healthy; the router swaps its ring only
  after that, so surviving groups keep their warm stores and only the keys
  the ring moves go cold.

Directory layout (one tree per group, nothing shared between processes)::

    <data_dir>/
      group-00/
        cache/results.sqlite     <- group 0's disk tier
        wal/wal-*.log            <- group 0's job journal
      group-01/
        ...

The per-group isolation is what makes the crash story simple: a worker owns
its files exclusively, so a restart replays *its* WAL with no cross-process
coordination, and killing one group never corrupts another.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait
from pathlib import Path
from typing import Any, Callable

#: How long to wait for a spawned worker's port handshake.
SPAWN_TIMEOUT_SECONDS = 60.0

#: Name of one group's directory inside the pool data dir.
GROUP_DIR_PATTERN = "group-{group:02d}"


def group_dir(data_dir: str | Path, group: int) -> Path:
    """The directory owned by shard group ``group``."""
    return Path(data_dir) / GROUP_DIR_PATTERN.format(group=group)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its service (picklable).

    ``data_dir`` is the *group's* directory; the worker derives
    ``cache/`` and ``wal/`` under it.  All limits mirror the single-process
    ``repro serve`` flags so an N-group pool behaves like N independent
    ``repro serve`` instances on disjoint key ranges.
    """

    group: int
    data_dir: str
    host: str = "127.0.0.1"
    job_workers: int = 1
    memory_capacity: int = 4096
    cache_cap: int | None = None
    cache_ttl: float | None = None
    max_queue_depth: int | None = None
    max_inflight_solves: int | None = None
    tracing: bool | None = None
    quiet: bool = True

    @property
    def cache_dir(self) -> str:
        return str(Path(self.data_dir) / "cache")

    @property
    def wal_dir(self) -> str:
        return str(Path(self.data_dir) / "wal")


def build_worker_service(spec: WorkerSpec) -> Any:
    """Build one group's :class:`~repro.service.server.AllocationService`.

    Shared by the worker process entry point and the in-process tests; the
    service recovers its WAL at construction, so calling this on a crashed
    group's directory re-enqueues every acknowledged-but-unfinished job.
    """
    from .server import AllocationService
    from .store import ResultStore, StoreLimits

    limits = StoreLimits(
        memory_entries=spec.memory_capacity,
        disk_bytes=spec.cache_cap,
        ttl_seconds=spec.cache_ttl,
    )
    store = ResultStore(cache_dir=spec.cache_dir, limits=limits)
    return AllocationService(
        store=store,
        job_workers=spec.job_workers,
        tracing=spec.tracing,
        wal=spec.wal_dir,
        max_queue_depth=spec.max_queue_depth,
        max_inflight_solves=spec.max_inflight_solves,
    )


def worker_main(spec: WorkerSpec, conn: Any) -> None:
    """Entry point of one shard-group worker process.

    Builds the group's service (replaying its WAL), binds an ephemeral
    port, reports ``("ready", port)`` through ``conn``, then serves until
    SIGTERM/SIGINT or until the supervising process dies, however it died
    (``kill -9`` included), so a worker never outlives its pool.  The drain
    path is the graceful one: stop accepting, finish queued jobs,
    final-fsync and close the WAL, exit 0.
    """
    from .frontdoor import AllocationHTTPServer, install_shutdown_signals

    try:
        service = build_worker_service(spec)
        server = AllocationHTTPServer((spec.host, 0), service, quiet=spec.quiet)
    except Exception as error:  # pragma: no cover - spawn failure reporting
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        finally:
            conn.close()
        raise
    install_shutdown_signals(server)
    parent = multiprocessing.parent_process()
    if parent is not None:

        def drain_when_orphaned() -> None:
            wait([parent.sentinel])  # readable once the parent is gone
            server.shutdown()

        threading.Thread(
            target=drain_when_orphaned, name="repro-parent-watch", daemon=True
        ).start()
    conn.send(("ready", server.server_address[1]))
    conn.close()
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()


@dataclass
class WorkerHandle:
    """Supervisor-side state of one group's worker process."""

    group: int
    spec: WorkerSpec
    process: Any = None
    port: int | None = None
    restarts: int = 0
    started_unix: float = 0.0
    #: False from the moment the process is known dead (killed, crashed or
    #: noticed by the monitor) until the replacement's handshake lands --
    #: the router's 503 signal.
    healthy: bool = False
    #: True while the monitor owns this group's restart (prevents a second
    #: heartbeat from double-spawning); cleared when the spawn resolves.
    restart_pending: bool = False

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    @property
    def url(self) -> str | None:
        if not self.healthy or self.port is None:
            return None
        return f"http://{self.spec.host}:{self.port}"


class WorkerPool:
    """Spawn, supervise, drain and restart the shard-group workers.

    Parameters
    ----------
    num_groups:
        Initial shard-group count (one worker process each).
    data_dir:
        Root of the per-group directory tree (created if missing).
    spec:
        Template :class:`WorkerSpec`; each group gets a copy with its own
        ``group``/``data_dir``.
    auto_restart:
        Restart a worker that exits without being asked to (default).  The
        chaos harness relies on this: ``kill -9`` a worker and the pool
        brings it back on the same directory, WAL replay included.
    heartbeat_seconds:
        Monitor poll interval -- the detection latency for a dead worker.
    on_event:
        Optional observer ``(event, group)`` for lifecycle transitions
        (``"start"``, ``"exit"``, ``"restart"``); used by tests and the
        CLI's log line.  Observer errors are swallowed.
    """

    def __init__(
        self,
        num_groups: int,
        data_dir: str | Path,
        spec: WorkerSpec | None = None,
        auto_restart: bool = True,
        heartbeat_seconds: float = 0.2,
        on_event: "Callable[[str, int], None] | None" = None,
    ):
        if num_groups < 1:
            raise ValueError("num_groups must be >= 1")
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._template = spec if spec is not None else WorkerSpec(group=0, data_dir="")
        self.auto_restart = auto_restart
        self.heartbeat_seconds = heartbeat_seconds
        self._on_event = on_event
        self._context = multiprocessing.get_context("spawn")
        self._lock = threading.Lock()
        self._handles: dict[int, WorkerHandle] = {}
        self._closing = False
        self._monitor: threading.Thread | None = None
        for group in range(num_groups):
            self._handles[group] = WorkerHandle(group=group, spec=self._spec_for(group))

    def _spec_for(self, group: int) -> WorkerSpec:
        return replace(
            self._template, group=group, data_dir=str(group_dir(self.data_dir, group))
        )

    def _emit(self, event: str, group: int) -> None:
        if self._on_event is None:
            return
        try:
            self._on_event(event, group)
        except Exception:  # pragma: no cover - observers must not kill the pool
            pass

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "WorkerPool":
        """Spawn every worker and block until all handshakes land."""
        with self._lock:
            handles = list(self._handles.values())
        for handle in handles:
            self._spawn(handle)
        if self._monitor is None:
            self._monitor = threading.Thread(
                target=self._monitor_loop, name="repro-pool-monitor", daemon=True
            )
            self._monitor.start()
        return self

    def _spawn(self, handle: WorkerHandle) -> None:
        """Start (or replace) one worker process; blocks for the handshake."""
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=worker_main,
            args=(handle.spec, child_conn),
            name=f"repro-worker-{handle.group:02d}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        if not parent_conn.poll(SPAWN_TIMEOUT_SECONDS):
            process.kill()
            raise RuntimeError(
                f"worker {handle.group} did not report a port within "
                f"{SPAWN_TIMEOUT_SECONDS:.0f} s"
            )
        kind, value = parent_conn.recv()
        parent_conn.close()
        if kind != "ready":
            process.join(timeout=5.0)
            raise RuntimeError(f"worker {handle.group} failed to start: {value}")
        with self._lock:
            handle.process = process
            handle.port = int(value)
            handle.started_unix = time.time()
            handle.healthy = True
        self._emit("start", handle.group)

    def _monitor_loop(self) -> None:
        """Heartbeat: notice dead workers, restart them on their own data."""
        while True:
            time.sleep(self.heartbeat_seconds)
            with self._lock:
                if self._closing:
                    return
                dead = []
                for handle in self._handles.values():
                    if (
                        handle.process is not None
                        and not handle.process.is_alive()
                        and not handle.restart_pending
                    ):
                        handle.healthy = False
                        handle.restart_pending = True
                        dead.append(handle)
            for handle in dead:
                self._emit("exit", handle.group)
                if not self.auto_restart:
                    continue  # restart_pending stays set: handled, stays down
                with self._lock:
                    if self._closing:
                        return
                    handle.restarts += 1
                try:
                    # Same spec, same directory: the replacement's service
                    # replays the group WAL before it reports ready.
                    self._spawn(handle)
                except RuntimeError:
                    with self._lock:
                        handle.restart_pending = False  # next heartbeat retries
                    continue
                with self._lock:
                    handle.restart_pending = False
                self._emit("restart", handle.group)

    def add_group(self) -> int:
        """Start a worker for group N (online resize); returns its index.

        The new worker is healthy when this returns -- the caller (the
        router) swaps its hash ring to ``N+1`` groups only afterwards, so
        no request is ever routed at a worker that is not serving yet.
        """
        with self._lock:
            if self._closing:
                raise RuntimeError("worker pool is closed")
            group = max(self._handles) + 1
            handle = WorkerHandle(group=group, spec=self._spec_for(group))
            self._handles[group] = handle
        self._spawn(handle)
        return group

    def kill(self, group: int) -> int:
        """SIGKILL one worker (the chaos hook); returns the dead pid.

        The monitor notices within a heartbeat and -- with ``auto_restart``
        -- brings the group back on its own directory, WAL replay first.
        """
        with self._lock:
            handle = self._handles[group]
            process = handle.process
            # Marked unhealthy immediately: the router must start answering
            # 503 for this group's keys now, not a heartbeat later.
            handle.healthy = False
        if process is None or not process.is_alive():
            raise RuntimeError(f"worker {group} is not running")
        pid = process.pid
        os.kill(pid, signal.SIGKILL)
        process.join(timeout=10.0)
        return pid

    def close(self, timeout_seconds: float = 30.0) -> None:
        """Graceful drain: SIGTERM all workers, join, escalate if needed."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            handles = list(self._handles.values())
        for handle in handles:
            handle.healthy = False
            process = handle.process
            if process is not None and process.is_alive():
                process.terminate()  # SIGTERM -> worker's graceful drain
        deadline = time.monotonic() + timeout_seconds
        for handle in handles:
            process = handle.process
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():  # pragma: no cover - drain timeout
                process.kill()
                process.join(timeout=5.0)
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Introspection (the router's view)
    # ------------------------------------------------------------------ #
    @property
    def num_groups(self) -> int:
        with self._lock:
            return len(self._handles)

    def groups(self) -> list[int]:
        with self._lock:
            return sorted(self._handles)

    def url_of(self, group: int) -> str | None:
        """The group's endpoint, or ``None`` while it is down/restarting."""
        with self._lock:
            handle = self._handles.get(group)
            return None if handle is None else handle.url

    def pid_of(self, group: int) -> int | None:
        with self._lock:
            handle = self._handles.get(group)
            return None if handle is None else handle.pid

    def worker_status(self) -> list[dict[str, Any]]:
        """One status row per group (the router's /stats `pool` section)."""
        with self._lock:
            return [
                {
                    "group": handle.group,
                    "pid": handle.pid,
                    "port": handle.port,
                    "healthy": handle.healthy,
                    "restarts": handle.restarts,
                    "started_unix": handle.started_unix,
                }
                for handle in sorted(self._handles.values(), key=lambda h: h.group)
            ]
